"""The benchmark's workloads: which evaluation each one runs, at which size.

A workload maps a benchmark seed onto :class:`ExperimentSettings`, so the
program under test only ever sees generated settings.  ``Workload.run``
runs the evaluation through the runner it is given and returns a function
that builds its canonical output document (``run-all --json`` for the
whole evaluation, ``<spec> --json``'s frame otherwise); the correctness
checks digest :func:`canonical_bytes` of that document.

Nothing here imports ``repro`` at module level: the benchmark times that
import as part of ``setup_s``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Callable, Dict, Tuple

#: The seed at which ``reference.json`` records each output digest.
DEFAULT_SEED = 0

#: Sizes a workload can run at: ``full`` is what the benchmark measures,
#: ``tiny`` is the self-test's.
SIZES = ("full", "tiny")

#: Fault-rate scales of the ``fault-sweep`` workload.
SWEEP_RATES = (0.5, 1.0, 2.0, 4.0)


def canonical_bytes(document: object) -> bytes:
    """The CLI's ``--json`` serialisation of an output document."""
    return json.dumps(document, indent=2, sort_keys=True).encode("utf-8")


def _quick_settings(seed: int, size: str):
    from repro.sim.settings import ExperimentSettings

    # ``run-all --quick --workloads apache``: the CI smoke evaluation, one
    # paper workload so that several cold runs fit in one measurement.
    settings = ExperimentSettings.quick().with_workloads(("apache",)).with_seeds((seed,))
    if size == "tiny":
        settings = replace(
            settings,
            total_cycles=4_000,
            warmup_cycles=2_000,
            timeslice_cycles=2_000,
            degradation_failed_cores=(0,),
            fleet_machines=2,
            fleet_racks=1,
            fuzz_cases=1,
        )
    return settings


def _quick_evaluate(settings, runner, options) -> Callable[[], object]:
    from repro.sim.experiments import run_all_experiments

    return run_all_experiments(settings, runner=runner).to_document


def _paper_dmr_settings(seed: int, size: str):
    from repro.sim.settings import ExperimentSettings

    if size == "tiny":
        base = ExperimentSettings.quick()
    else:
        # Paper-sized runs: 60k measured + 15k warm-up cycles per cell.
        base = ExperimentSettings()
    return base.with_workloads(("apache", "oltp")).with_seeds((seed,))


def _fault_sweep_settings(seed: int, size: str):
    from repro.sim.settings import ExperimentSettings

    seeds = tuple(range(seed, seed + (2 if size == "tiny" else 10)))
    return ExperimentSettings().with_seeds(seeds)


def _spec_evaluate(name: str) -> Callable:
    def evaluate(settings, runner, options) -> Callable[[], object]:
        from repro.sim.specs import EXPERIMENTS

        return EXPERIMENTS[name].execute(settings, runner=runner, **options).frame().to_json

    return evaluate


@dataclass(frozen=True)
class Workload:
    """One benchmark workload."""

    name: str
    #: ``(seed, size) -> ExperimentSettings``.
    settings: Callable
    #: ``(settings, runner, options) -> function returning the document``.
    evaluate: Callable
    #: Spec options per size (``faults`` takes its sweep shape this way).
    options: Dict[str, Dict[str, object]]
    #: Per-layer metrics its traced cold run must read nonzero: the layers
    #: it is chosen to exercise.  A zero means a wrapper was bypassed.
    exercised: Tuple[str, ...]

    def run(self, seed: int, size: str, runner) -> Callable[[], object]:
        return self.evaluate(self.settings(seed, size), runner, self.options.get(size, {}))


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "quick-evaluation",
            _quick_settings,
            _quick_evaluate,
            {},
            (
                "simulator.runs",
                "hierarchy.warm.calls",
                "timing.run_quantum.calls",
                "fleet.plan_s",
                "jobs.fleet.cells",
                "fuzz.run_oracles_s",
                "campaign.chunks",
            ),
        ),
        Workload(
            "paper-dmr",
            _paper_dmr_settings,
            _spec_evaluate("figure5"),
            {},
            ("simulator.runs", "hierarchy.warm.calls", "timing.run_quantum.calls", "jobs.figure5.cells"),
        ),
        Workload(
            "fault-sweep",
            _fault_sweep_settings,
            _spec_evaluate("faults"),
            {
                "full": {"sweep_rates": SWEEP_RATES, "all_configurations": True, "trials": 50},
                "tiny": {"sweep_rates": SWEEP_RATES[:2], "all_configurations": True, "trials": 5},
            },
            (
                "campaign.chunks",
                "campaign.trials",
                "jobs.faults.cells",
                "store.load_many.calls",
                "store.store_many.calls",
                "store.flush_s",
            ),
        ),
    )
}
