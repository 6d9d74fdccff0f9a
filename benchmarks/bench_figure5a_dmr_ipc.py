"""Figure 5(a): per-thread user IPC of No DMR 2X, No DMR, and Reunion.

Paper result: ``No DMR`` (8 VCPUs on 8 cores) observes 8-15% higher per-thread
IPC than ``No DMR 2X`` (16 VCPUs on 16 cores); Reunion loses 22-48% relative
to ``No DMR 2X`` (34-53% relative to ``No DMR``), with the OS-intensive web
servers hurt the most.
"""

from __future__ import annotations

from benchmarks.conftest import run_once
from repro.sim.specs import EXPERIMENTS


def test_figure5a_per_thread_ipc(benchmark, bench_settings, experiment_cache):
    frame = run_once(
        benchmark,
        lambda: experiment_cache.get(
            "figure5", lambda: EXPERIMENTS["figure5"].run(bench_settings)
        ),
    )
    print()
    print(frame.to_table())

    for workload in frame.axis_values("workload"):
        normalized = frame.normalized(
            "user_ipc", "configuration", "no-dmr-2x", workload=workload
        )
        benchmark.extra_info[f"{workload}.no_dmr"] = round(normalized["no-dmr"], 3)
        benchmark.extra_info[f"{workload}.reunion"] = round(normalized["reunion"], 3)
        # Reunion must lose per-thread IPC relative to both non-DMR baselines.
        assert normalized["reunion"] < 1.0
        assert normalized["reunion"] < normalized["no-dmr"]
