"""Tests for the declarative experiment-spec API (:mod:`repro.sim.specs`).

Four contracts:

* **registry completeness** -- every paper experiment is a registered spec
  with a schema, and the registry drives both ``run_all_experiments`` and
  the CLI;
* **request resolution** -- workload limits, single-seed measurements and
  options resolve the same way for every caller;
* **backend determinism** -- ``serial``, ``process`` and ``thread``
  backends produce byte-identical results for one spec of each family
  (simulation, measurement, faults);
* **uniform rendering** -- a spec's frame renders its tables and JSON
  document from the spec's ``MetricSchema``.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ExperimentError
from repro.sim.experiments import ExperimentSettings, run_all_experiments
from repro.sim.frames import MetricColumn, MetricSchema
from repro.sim.jobs import ExperimentJob
from repro.sim.runner import ExperimentRunner
from repro.sim.specs import (
    EXPERIMENTS,
    ExperimentSpec,
    ParameterGrid,
    SpecRequest,
    experiment,
    experiment_names,
    jsonify,
    register_experiment,
)

QUICK = ExperimentSettings.quick().with_workloads(("apache",))


def fresh(jobs: int = 1, backend=None) -> ExperimentRunner:
    return ExperimentRunner(jobs=jobs, use_cache=False, backend=backend)


class TestParameterGrid:
    def test_points_are_row_major_and_sized(self):
        grid = ParameterGrid.of(("a", (1, 2)), ("b", ("x", "y", "z")))
        points = list(grid.points())
        assert len(points) == grid.size() == 6
        assert points[0] == {"a": 1, "b": "x"}
        assert points[1] == {"a": 1, "b": "y"}  # last axis varies fastest
        assert points[-1] == {"a": 2, "b": "z"}

    def test_axis_lookup_and_describe(self):
        grid = ParameterGrid.of(("workload", ("apache",)), ("seed", (0, 1)))
        assert grid.axis("seed") == (0, 1)
        assert grid.names() == ("workload", "seed")
        assert grid.describe() == "workload(1) x seed(2)"
        with pytest.raises(ExperimentError):
            grid.axis("nope")

    def test_empty_grid(self):
        assert ParameterGrid(()).size() == 0
        assert ParameterGrid(()).describe() == "(empty)"


class TestRegistry:
    def test_registry_covers_exactly_the_paper_experiments(self):
        assert set(experiment_names()) >= {
            "figure5", "figure6", "pab", "table1", "table2", "single-os",
            "ablation", "faults",
        }

    def test_every_spec_grid_matches_its_job_count(self):
        # The grid is the declared cell space: its size must equal the
        # number of enumerated jobs for any request.
        for name, spec in EXPERIMENTS.items():
            request = spec.request(QUICK)
            assert spec.grid(request).size() == len(spec.enumerate_jobs(request)), name

    def test_duplicate_registration_is_rejected(self):
        with pytest.raises(ExperimentError):
            register_experiment(EXPERIMENTS["figure5"])

    def test_unknown_experiment_lookup(self):
        with pytest.raises(ExperimentError, match="registered"):
            experiment("figure7")


class TestRequestResolution:
    def test_workload_limit_applies_only_without_explicit_workloads(self):
        spec = EXPERIMENTS["ablation"]
        wide = ExperimentSettings.quick()  # two workloads; limit is two
        assert spec.request(wide).settings.workloads == wide.workloads
        six = ExperimentSettings()
        assert len(spec.request(six).settings.workloads) == 2
        assert (
            spec.request(six, explicit_workloads=True).settings.workloads
            == six.workloads
        )

    def test_single_seed_specs_keep_only_the_first_seed(self):
        spec = EXPERIMENTS["table1"]
        request = spec.request(QUICK.with_seeds((7, 8, 9)))
        assert request.settings.seeds == (7,)
        for job in spec.enumerate_jobs(request):
            assert job.seed == 7

    def test_options_reach_the_request(self):
        request = SpecRequest(settings=QUICK, options={"trials": 3})
        assert request.option("trials") == 3
        assert request.option("missing", 42) == 42
        # Explicit None falls back to the default too.
        assert SpecRequest(settings=QUICK, options={"x": None}).option("x", 1) == 1


@pytest.mark.slow
class TestBackendDeterminism:
    """serial == process == thread, byte for byte, one spec per family."""

    CASES = {
        "figure5": dict(),                      # simulation family
        "figure6": dict(),                      # multi-VM re-warm
        # Identical machines warm identically, so all but the first per
        # process restore the warm-state checkpoint (a process-global memo).
        "fleet": dict(machines=4, racks=2),
        "table2": dict(phases_to_measure=1, measurement_phase_scale=0.02),
        "faults": dict(trials=4),               # faults family
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_backends_agree(self, name):
        spec = EXPERIMENTS[name]
        settings = QUICK.with_seeds((0, 1)) if spec.multi_seed else QUICK
        documents = {}
        for backend in ("serial", "process", "thread"):
            result = spec.run(
                settings, runner=fresh(jobs=2, backend=backend), **self.CASES[name]
            )
            documents[backend] = json.dumps(spec.to_json(result), sort_keys=True)
        assert documents["serial"] == documents["process"] == documents["thread"]


class TestUniformRendering:
    def test_to_table_is_generated_from_the_schema_views(self):
        frame = EXPERIMENTS["figure5"].run(QUICK, runner=fresh())
        rendered = frame.to_table()
        # Both schema views render, in order, with the paper's titles.
        assert rendered.index("Figure 5(a)") < rendered.index("Figure 5(b)")
        assert "apache" in rendered
        # The normalising view prints the frame's normalised ratios.
        normalized = frame.normalized(
            "user_ipc", "configuration", "no-dmr-2x", workload="apache"
        )
        assert f"{normalized['reunion']:.3f}" in rendered

    def test_to_json_is_serializable_and_tagged(self):
        spec = EXPERIMENTS["figure5"]
        result = spec.run(QUICK, runner=fresh())
        document = spec.to_json(result)
        assert document["experiment"] == "figure5"
        assert document["family"] == "simulation"
        parsed = json.loads(json.dumps(document))
        assert parsed["result"]["rows"][0]["workload"] == "apache"

    def test_jsonify_handles_enums_dataclass_and_odd_keys(self):
        from enum import Enum

        class Colour(Enum):
            RED = 1

        assert jsonify(Colour.RED) == "RED"
        assert jsonify({1: (Colour.RED,)}) == {"1": ["RED"]}
        assert jsonify(frozenset(["x"])) == ["x"]
        assert jsonify(object()).startswith("<object object")


class TestCustomSpecIntegration:
    @staticmethod
    def custom_spec(**overrides) -> ExperimentSpec:
        fields = dict(
            name="spec-test-custom",
            title="test custom",
            grid=lambda request: ParameterGrid.of(("seed", request.settings.seeds)),
            enumerate_jobs=lambda request: [
                ExperimentJob(
                    kind="figure5", workload="apache", variant="no-dmr", seed=seed,
                    settings=request.settings.cell_settings(),
                )
                for seed in request.settings.seeds
            ],
            schema=lambda request: MetricSchema(
                keys=("workload",),
                metrics=(MetricColumn("user_ipc", label="custom ipc"),),
            ),
        )
        fields.update(overrides)
        return ExperimentSpec(**fields)

    def test_registered_spec_joins_run_all_frames(self, tmp_path):
        register_experiment(self.custom_spec())
        try:
            everything = run_all_experiments(
                QUICK,
                runner=ExperimentRunner(jobs=1, cache_dir=tmp_path),
                include_switching=False,
                include_ablation=False,
                include_faults=False,
            )
            frame = everything.frame("spec-test-custom")
            assert frame.mean_of("user_ipc", workload="apache") > 0
            assert "custom ipc" in everything.render()
            assert "spec-test-custom" in everything.to_document()["frames"]
        finally:
            del EXPERIMENTS["spec-test-custom"]

    def test_spec_without_a_schema_is_rejected(self):
        with pytest.raises(ExperimentError, match="MetricSchema"):
            self.custom_spec(schema=None)
        with pytest.raises(ExperimentError, match="MetricSchema"):
            register_experiment(ExperimentSpec(name="spec-test-bare", title="bare"))
        assert "spec-test-bare" not in EXPERIMENTS
