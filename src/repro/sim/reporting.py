"""Plain-text reporting for the reproduction experiments.

:func:`full_report` runs every experiment and stitches their tables into one
document -- this is what the benchmark harness prints so results can be
compared to the paper side by side.
"""

from __future__ import annotations

from typing import List, Optional

from repro.analysis.tables import TextTable
from repro.faults.outcomes import CoverageReport
from repro.sim.experiments import (
    FAULT_COVERAGE_TITLE,
    ExperimentSettings,
    run_all_experiments,
    run_fault_coverage_experiment,
)
from repro.sim.runner import ExperimentRunner


def format_coverage_reports(reports: List[CoverageReport]) -> str:
    """Render a fault-injection coverage comparison from raw reports."""
    table = TextTable(
        ["configuration", "trials", "coverage", "silent corruption rate"],
        title=FAULT_COVERAGE_TITLE,
    )
    for report in reports:
        table.add_row(
            [report.configuration, report.total, report.coverage, report.silent_corruption_rate]
        )
    return table.render()


def fault_coverage_report(
    trials_per_site: int = 25,
    seed: int = 0,
    runner: Optional[ExperimentRunner] = None,
) -> str:
    """Run the default fault-injection campaign and render its summary.

    A thin convenience wrapper over
    :func:`~repro.sim.experiments.run_fault_coverage_experiment` (single
    seed, default configurations): the campaign cells run through the
    experiment engine like every other experiment.
    """
    result = run_fault_coverage_experiment(
        trials_per_site=trials_per_site, seeds=(seed,), runner=runner
    )
    return format_coverage_reports(result.reports())


def full_report(
    settings: Optional[ExperimentSettings] = None,
    include_switching: bool = True,
    include_ablation: bool = True,
    include_faults: bool = True,
    runner: Optional[ExperimentRunner] = None,
) -> str:
    """Run every experiment and return one combined plain-text report.

    Everything -- the simulation experiments *and* the fault-injection
    campaign -- goes through :func:`run_all_experiments` as one job batch,
    so a parallel runner overlaps cells across experiments and a warm cache
    serves the whole report without simulating or injecting anything.
    """
    settings = settings or ExperimentSettings()
    everything = run_all_experiments(
        settings,
        runner=runner,
        include_switching=include_switching,
        include_ablation=include_ablation,
        include_faults=include_faults,
    )
    return everything.render()
