"""Table 2: cycles spent in user and OS code between mode switches.

Paper result (single-OS, non-DMR baseline): all benchmarks except Apache and
Zeus spend at least ~200k cycles in user mode before entering the OS; pgbench
has by far the longest user phases (554k cycles), while Zeus and Apache spend
the most time inside the OS (220k and 98k cycles per visit).

The reproduction's absolute cycle counts are inflated by the simulator's
lower absolute IPC, but the ordering of workloads -- which the Section 5.3
overhead argument rests on -- is preserved.
"""

from __future__ import annotations

from benchmarks.conftest import measurement_settings, run_once
from repro.sim.specs import EXPERIMENTS


def test_table2_cycles_between_switches(benchmark, bench_settings, experiment_cache):
    frame = run_once(
        benchmark,
        lambda: experiment_cache.get(
            "table2",
            lambda: EXPERIMENTS["table2"].run(
                measurement_settings(bench_settings), explicit_workloads=True
            ),
        ),
    )
    print()
    print(frame.to_table())

    user = {w: frame.value("user_cycles", workload=w) for w in frame.axis_values("workload")}
    os_ = {w: frame.value("os_cycles", workload=w) for w in frame.axis_values("workload")}
    for workload in user:
        benchmark.extra_info[f"{workload}.user_kcycles"] = round(user[workload] / 1000)
        benchmark.extra_info[f"{workload}.os_kcycles"] = round(os_[workload] / 1000)

    if "pgbench" in user and "apache" in user:
        # pgbench has the longest user phases; apache/zeus the shortest.
        assert user["pgbench"] > 2 * user["apache"]
    if "zeus" in user and "apache" in user:
        # Zeus spends the most time in the OS per visit.
        assert os_["zeus"] > os_["apache"]
    if "oltp" in user and "apache" in user:
        # The database workloads enter the OS far less often than the web servers.
        assert user["oltp"] > user["apache"]
