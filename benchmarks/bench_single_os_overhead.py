"""Section 5.3 bottom line: single-OS mode-switching overhead.

Paper result: combining Table 1 (switch cost, ~13k cycles per round trip) and
Table 2 (cycles between switches), switching modes at every OS entry/exit in
a single-OS system costs about 8% for Apache and less than 5% for the other
benchmarks -- small enough that mixed-mode operation is worthwhile even with
frequent OS activity.
"""

from __future__ import annotations

from benchmarks.conftest import measurement_settings, run_once
from repro.sim.specs import EXPERIMENTS


def test_single_os_switching_overhead(benchmark, bench_settings, experiment_cache):
    # The single-OS spec enumerates exactly the Table 1 and Table 2 cells, so
    # whichever of the three benchmarks runs first simulates them and the
    # harness-wide runner's in-memory memo serves the other two.
    frame = run_once(
        benchmark,
        lambda: experiment_cache.get(
            "single-os",
            lambda: EXPERIMENTS["single-os"].run(
                measurement_settings(bench_settings), explicit_workloads=True
            ),
        ),
    )
    print()
    print(frame.to_table())

    overhead = {
        w: frame.value("overhead_percent", workload=w) for w in frame.axis_values("workload")
    }
    for workload, percent in overhead.items():
        benchmark.extra_info[f"{workload}.overhead_pct"] = round(percent, 2)
        # The overhead of frequent mode switching stays small.
        assert percent < 15.0
    if "apache" in overhead and "pgbench" in overhead:
        # Apache (shortest round trips) pays the most; pgbench the least.
        assert overhead["apache"] > overhead["pgbench"]
