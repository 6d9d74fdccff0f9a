"""Table 1: mode-switching overheads (cycles) under MMM-TP.

Paper result: Enter DMR costs ~2.2-2.4k cycles (context switching VCPU state
through the scratchpad plus synchronising the pair); Leave DMR costs
~9.9-10.4k cycles because the mute core's 512 KB L2 (8192 lines) must be
inspected and flushed at one line per cycle.

This benchmark uses the *full-size* paper configuration (not the scaled
evaluation machine) because the flush cost is determined by the real L2 line
count.
"""

from __future__ import annotations

from benchmarks.conftest import measurement_settings, run_once
from repro.sim.specs import EXPERIMENTS


def test_table1_switch_overheads(benchmark, bench_settings, experiment_cache):
    frame = run_once(
        benchmark,
        lambda: experiment_cache.get(
            "table1",
            lambda: EXPERIMENTS["table1"].run(
                measurement_settings(bench_settings), explicit_workloads=True
            ),
        ),
    )
    print()
    print(frame.to_table())

    for workload in frame.axis_values("workload"):
        enter = frame.value("enter_dmr_cycles", workload=workload)
        leave = frame.value("leave_dmr_cycles", workload=workload)
        benchmark.extra_info[f"{workload}.enter"] = round(enter)
        benchmark.extra_info[f"{workload}.leave"] = round(leave)
        # Enter DMR lands near the paper's ~2.2-2.4k cycles.
        assert 1_500 <= enter <= 4_000
        # Leave DMR is dominated by the 8192-line flush (~10k cycles total).
        assert 9_000 <= leave <= 16_000
        assert leave > 3 * enter
