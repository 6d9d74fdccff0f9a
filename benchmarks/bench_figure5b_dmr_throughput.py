"""Figure 5(b): overall throughput of No DMR 2X, No DMR, and Reunion.

Paper result: ``No DMR`` achieves roughly half the throughput of ``No DMR
2X`` (it runs half the VCPUs); Reunion reaches only one quarter to one third,
because it both halves the VCPU count and slows each VCPU down.
"""

from __future__ import annotations

from benchmarks.conftest import run_once
from repro.sim.specs import EXPERIMENTS


def test_figure5b_overall_throughput(benchmark, bench_settings, experiment_cache):
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
            "throughput", "configuration", "no-dmr-2x", workload=workload
        )
        benchmark.extra_info[f"{workload}.no_dmr"] = round(normalized["no-dmr"], 3)
        benchmark.extra_info[f"{workload}.reunion"] = round(normalized["reunion"], 3)
        # Half the VCPUs -> roughly half the throughput (well below the 2X system).
        assert normalized["no-dmr"] < 0.85
        # Reunion is the worst of the three configurations.
        assert normalized["reunion"] < normalized["no-dmr"]
