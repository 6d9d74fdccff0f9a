"""Tests for the declarative experiment-spec API (:mod:`repro.sim.specs`).

Four contracts:

* **registry completeness** -- every legacy ``run_*`` entry point is
  subsumed by a registered spec, and the registry drives both
  ``run_all_experiments`` and the CLI;
* **parity** -- running an experiment through its spec produces the same
  result as the legacy wrapper (they share enumerators and assemblers);
* **backend determinism** -- ``serial``, ``process`` and ``thread``
  backends produce byte-identical results for one spec of each family
  (simulation, measurement, faults);
* **uniform rendering** -- ``to_table``/``to_json`` are generated from the
  spec's ``MetricSchema`` and stay consistent with the legacy dataclass
  views (full numeric parity lives in ``tests/test_frames.py``).
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ExperimentError
from repro.sim.experiments import (
    ExperimentSettings,
    run_dmr_overhead_experiment,
    run_fault_coverage_experiment,
    run_single_os_overhead_study,
    run_window_ablation,
)
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

#: Every legacy entry point and the spec that subsumes it.
LEGACY_ENTRY_POINTS = {
    "run_dmr_overhead_experiment": "figure5",
    "run_mixed_mode_experiment": "figure6",
    "run_pab_latency_study": "pab",
    "run_switch_overhead_experiment": "table1",
    "run_switch_frequency_experiment": "table2",
    "run_single_os_overhead_study": "single-os",
    "run_window_ablation": "ablation",
    "run_fault_coverage_experiment": "faults",
    "run_fault_rate_sweep": "faults",
}


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
    def test_every_legacy_entry_point_has_a_spec(self):
        for entry_point, name in LEGACY_ENTRY_POINTS.items():
            assert name in EXPERIMENTS, entry_point
            assert entry_point in EXPERIMENTS[name].legacy_entry_points

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


class TestSpecRunsMatchLegacyWrappers:
    """Specs return frames; the legacy wrappers return dataclass views.

    Full numeric spec-vs-wrapper parity for every family lives in
    ``tests/test_frames.py``; these tests pin the contract itself."""

    def test_figure5_frame_matches_wrapper_rows(self):
        frame = EXPERIMENTS["figure5"].run(QUICK, runner=fresh())
        legacy = run_dmr_overhead_experiment(QUICK, runner=fresh())
        for row in legacy.rows:
            for configuration, interval in row.per_thread_ipc.items():
                assert interval == frame.value(
                    "user_ipc", workload=row.workload, configuration=configuration
                )

    def test_ablation_default_restriction(self):
        # Legacy default restricted the ablation to two workloads; the
        # spec's workload_limit keeps that behaviour.
        frame = EXPERIMENTS["ablation"].run(QUICK, runner=fresh())
        legacy = run_window_ablation(QUICK, runner=fresh())
        assert tuple(row.workload for row in legacy.rows) == frame.axis_values(
            "workload"
        )
        for row in legacy.rows:
            for variant, ipc in row.ipc_by_variant.items():
                assert ipc == frame.value(
                    "user_ipc", workload=row.workload, variant=variant
                )

    def test_single_os_spec_equals_composed_study(self):
        frame = EXPERIMENTS["single-os"].run(
            QUICK,
            runner=fresh(),
            transitions_to_measure=2,
            warmup_cycles=2_000,
            phases_to_measure=1,
            measurement_phase_scale=0.02,
        )
        legacy = run_single_os_overhead_study(workloads=("apache",), runner=fresh())
        # Different measurement knobs => different numbers; same workloads
        # and shape, and both positive overheads.
        assert frame.axis_values("workload") == tuple(
            row.workload for row in legacy.rows
        )
        for row in frame.rows:
            assert row["switch_cycles"] > 0
            assert 0 < row["overhead_percent"] < 100

    def test_faults(self):
        frame = EXPERIMENTS["faults"].run(
            ExperimentSettings().with_seeds((0, 1)), runner=fresh(), trials=4
        )
        via_wrapper = run_fault_coverage_experiment(
            trials_per_site=4, seeds=(0, 1), runner=fresh()
        )
        assert frame.axis_values("configuration") == tuple(
            row.configuration for row in via_wrapper.rows
        )
        for row in via_wrapper.rows:
            cell = frame.value("coverage", configuration=row.configuration)
            assert cell.mean == pytest.approx(row.coverage)
            assert cell == row.coverage_interval
            assert frame.value("trials", configuration=row.configuration) == (
                row.report.total
            )


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
        rendered = EXPERIMENTS["figure5"].to_table(frame)
        # Both schema views render, in order, with the paper's titles.
        assert rendered.index("Figure 5(a)") < rendered.index("Figure 5(b)")
        assert "apache" in rendered
        # The legacy dataclass view formats the same normalised numbers.
        legacy = run_dmr_overhead_experiment(QUICK, runner=fresh())
        normalized = legacy.rows[0].normalized_ipc()["reunion"]
        assert f"{normalized:.3f}" in rendered

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
    def test_registered_spec_joins_run_all_extras(self, tmp_path):
        from repro.sim.experiments import run_all_experiments
        from repro.sim.jobs import ExperimentJob

        spec = ExperimentSpec(
            name="spec-test-extra",
            title="test extra",
            grid=lambda request: ParameterGrid.of(("seed", request.settings.seeds)),
            enumerate_jobs=lambda request: [
                ExperimentJob(
                    kind="figure5", workload="apache", variant="no-dmr", seed=seed,
                    settings=request.settings.cell_settings(),
                )
                for seed in request.settings.seeds
            ],
            assemble=lambda request, jobs, results: sorted(
                results[job]["user_ipc"] for job in jobs
            ),
            tables=lambda result: [f"extra ipcs: {result}"],
        )
        register_experiment(spec)
        try:
            everything = run_all_experiments(
                QUICK,
                runner=ExperimentRunner(jobs=1, cache_dir=tmp_path),
                include_switching=False,
                include_ablation=False,
                include_faults=False,
            )
            assert everything.extras["spec-test-extra"]
            assert "extra ipcs:" in everything.render()
        finally:
            del EXPERIMENTS["spec-test-extra"]
