"""Section 5.2, "Effect of PAB Latency": serial vs parallel PAB lookup.

Paper result: a 2-cycle PAB lookup performed serially before the L2 access
reduces the performance-mode application's IPC by only 3-10%; the reliable
application never uses the PAB and is unaffected.
"""

from __future__ import annotations

from benchmarks.conftest import run_once
from repro.analysis.metrics import percent_change
from repro.sim.specs import EXPERIMENTS


def test_pab_serial_lookup_sensitivity(benchmark, bench_settings, experiment_cache):
    frame = run_once(
        benchmark,
        lambda: experiment_cache.get(
            "pab", lambda: EXPERIMENTS["pab"].run(bench_settings)
        ),
    )
    print()
    print(frame.to_table())

    for workload in frame.axis_values("workload"):
        parallel_ipc = frame.value("performance_ipc", workload=workload, lookup="parallel")
        serial_ipc = frame.value("performance_ipc", workload=workload, lookup="serial")
        performance_change = percent_change(serial_ipc, parallel_ipc)
        reliable_change = percent_change(
            frame.value("reliable_ipc", workload=workload, lookup="serial"),
            frame.value("reliable_ipc", workload=workload, lookup="parallel"),
        )
        benchmark.extra_info[f"{workload}.perf_change_pct"] = round(performance_change, 2)
        # Serialising the lookup costs a little performance-mode IPC...
        assert serial_ipc <= parallel_ipc
        assert performance_change > -20.0
        # ...and leaves the reliable VM essentially untouched.
        assert abs(reliable_change) < 6.0
