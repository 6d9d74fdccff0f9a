"""Fault-coverage study (Sections 2.1 and 3.4, qualitative).

The paper's protection argument: a traditional DMR machine detects faults
before retirement; an MMM running some cores in performance mode must add the
PAB (for stores whose address/permission path is corrupted) and the
Enter-DMR privileged-register verification, after which reliable state is
protected as well as under full DMR; a naive design that simply switches DMR
off loses that protection and silently corrupts reliable state.

The campaign runs through the experiment engine like every other benchmark:
``REPRO_BENCH_JOBS=N`` fans the (configuration, fault-site, seed, chunk)
cells out over N workers, and ``REPRO_BENCH_CACHE=<dir>`` reuses cached
cells across harness runs.
"""

from __future__ import annotations

from benchmarks.conftest import run_once
from repro.faults.cells import assemble_campaign_reports
from repro.faults.outcomes import FaultOutcome
from repro.sim.experiments import ExperimentSettings
from repro.sim.specs import EXPERIMENTS


def test_fault_coverage_by_configuration(benchmark):
    run = run_once(
        benchmark,
        lambda: EXPERIMENTS["faults"].execute(
            ExperimentSettings().with_seeds((0, 1, 2)), trials=50
        ),
    )
    print()
    print(run.frame().to_table())

    # The frame carries the aggregate columns; the outcome counts come from
    # the per-trial records of the same run.
    by_name, _ = assemble_campaign_reports(run.jobs, run.results)
    for name, report in by_name.items():
        benchmark.extra_info[f"{name}.coverage"] = round(report.coverage, 3)

    assert by_name["always-dmr"].coverage == 1.0
    assert by_name["mmm"].coverage == 1.0
    assert by_name["mmm"].count(FaultOutcome.DETECTED_PAB) > 0
    assert by_name["naive-mode-switch"].silent_corruption_rate > 0.0
    assert by_name["naive-mode-switch"].coverage < by_name["mmm"].coverage
