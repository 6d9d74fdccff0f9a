"""Figure 6(b): throughput of the mixed-mode consolidated server.

Paper result: MMM-TP improves the performance VM's throughput by 2.4-3.6x
over the always-DMR baseline (1.8-1.9x over MMM-IPC), and overall machine
throughput by 1.7-2.3x.
"""

from __future__ import annotations

from benchmarks.conftest import run_once
from repro.sim.specs import EXPERIMENTS


def test_figure6b_throughput(benchmark, bench_settings, experiment_cache):
    frame = run_once(
        benchmark,
        lambda: experiment_cache.get(
            "figure6", lambda: EXPERIMENTS["figure6"].run(bench_settings)
        ),
    )
    print()
    print(frame.to_table())

    for workload in frame.axis_values("workload"):
        def normalized(metric):
            return frame.normalized(metric, "configuration", "dmr-base", workload=workload)

        performance = normalized("performance_throughput")
        overall = normalized("overall_throughput")
        ipc_speedup = normalized("performance_ipc")
        benchmark.extra_info[f"{workload}.perf_vm"] = round(performance["mmm-tp"], 3)
        benchmark.extra_info[f"{workload}.overall"] = round(overall["mmm-tp"], 3)
        # MMM-TP multiplies the performance VM's throughput well beyond what
        # per-thread IPC alone provides (it also doubles the VCPU count).
        assert performance["mmm-tp"] > 1.5
        assert performance["mmm-tp"] > ipc_speedup["mmm-ipc"]
        # Overall system throughput (reliable VM included) also improves.
        assert overall["mmm-tp"] > 1.2
        assert overall["mmm-ipc"] > 1.0
