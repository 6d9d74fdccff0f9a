"""Graceful degradation under a mid-run core-failure timeline (dynamic scenario).

The paper's machine adapts at runtime: as permanent faults retire cores, the
mapping policies re-pair the survivors each quantum and throughput degrades
gracefully instead of collapsing.  This benchmark sweeps the failed-core axis
of the ``degradation`` experiment spec -- every cell is one run whose
``CoreFailed`` timeline events fire *during* measurement -- and checks the
expected shape: throughput falls monotonically (within tolerance) as the
surviving-core count shrinks, and never to zero while cores survive.

The sweep runs through the experiment engine like every other benchmark:
``REPRO_BENCH_JOBS=N`` fans the (workload, failed-cores, seed) cells out over
N workers, ``REPRO_BENCH_BACKEND`` picks the runner backend, and
``REPRO_BENCH_CACHE=<dir>`` reuses cached cells across harness runs.
"""

from __future__ import annotations

from benchmarks.conftest import run_once
from repro.sim.specs import EXPERIMENTS


def test_timeline_degradation_throughput(benchmark, bench_settings, experiment_cache):
    frame = run_once(
        benchmark,
        lambda: experiment_cache.get(
            "degradation",
            lambda: EXPERIMENTS["degradation"].run(bench_settings, explicit_workloads=True),
        ),
    )
    print()
    print(frame.to_table())

    num_cores = bench_settings.config().num_cores
    failures = frame.axis_values("failed_cores")
    healthy, heaviest = min(failures), max(failures)
    for workload in frame.axis_values("workload"):
        normalized = frame.normalized(
            "throughput", "failed_cores", healthy, workload=workload
        )
        for failed in failures:
            survivors = num_cores - failed
            benchmark.extra_info[f"{workload}.{survivors}cores"] = round(
                normalized[failed], 3
            )
        # Every cell's failure events fired mid-run.
        assert frame.mean_of("throughput", workload=workload, failed_cores=healthy) > 0
        # Losing cores must not help: throughput at the heaviest failure
        # level sits clearly below the healthy machine.
        if heaviest > healthy:
            assert normalized[heaviest] < 1.0
        # ...and degradation is graceful, not a collapse: the machine keeps
        # at least the surviving-core share of its throughput (minus slack
        # for re-pairing and pausing effects).
        for failed in failures:
            survivors = num_cores - failed
            floor = 0.5 * survivors / num_cores
            assert normalized[failed] >= floor
