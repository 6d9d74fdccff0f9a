#!/usr/bin/env python3
"""Fault-injection study: what protects reliable state in each design?

Three complementary views of the paper's protection argument (Sections 2.1
and 3.4):

1. A *functional coverage campaign* injects individual faults (corrupted
   execution results, stores redirected by TLB/datapath faults, corrupted
   privileged registers) into four designs -- a traditional always-DMR
   machine, a Mixed-Mode Multicore with its PAB and transition verification,
   a naive design that simply turns DMR off, and a belt-and-braces DMR+PAB
   machine -- and classifies the outcome of every fault.  The campaign is
   cell-shaped: its (configuration, fault-site, seed, chunk) cells run
   through the experiment engine, fanned out over worker processes.

2. A *fault-space sweep* scales the fault rate and shows how the naive
   design's silent-corruption rate grows with it while the protected
   designs stay clean.

3. A *timing simulation with live fault injection* runs the MMM-TP
   consolidated server while store-address and privileged-register faults
   strike the performance-mode cores, and shows that the PAB blocks every
   escape attempt before reliable memory is touched.

Run with::

    python examples/fault_injection_study.py
"""

from __future__ import annotations

from repro import FaultRates, MixedModeMulticore
from repro.config.presets import evaluation_system_config
from repro.faults.cells import assemble_campaign_reports
from repro.sim.experiments import ExperimentSettings
from repro.sim.runner import ExperimentRunner
from repro.sim.specs import EXPERIMENTS


def coverage_campaign() -> None:
    print("=== Functional fault-injection campaign (100 faults per class) ===")
    runner = ExperimentRunner(jobs=4, use_cache=False)
    run = EXPERIMENTS["faults"].execute(
        ExperimentSettings().with_seeds((0, 1, 2, 3, 4)), runner=runner, trials=100
    )
    print(run.frame().to_table())
    print()
    # The frame aggregates coverage per configuration; the outcome
    # breakdown folds the same run's per-trial records.
    reports, _ = assemble_campaign_reports(run.jobs, run.results)
    for report in reports.values():
        print(f"--- outcome breakdown: {report.configuration}")
        for outcome, count, fraction in report.summary_rows():
            print(f"    {outcome:34s}{count:6d}  ({fraction:5.1%})")
    print(f"engine: {runner.stats.summary()} across {runner.jobs} workers")
    print()


def fault_space_sweep() -> None:
    print("=== Fault-space sweep: silent corruption vs fault-rate scale ===")
    runner = ExperimentRunner(jobs=4, use_cache=False)
    sweep = EXPERIMENTS["faults"].run(
        ExperimentSettings(),  # the default ten-seed sweep
        runner=runner,
        trials=100,
        sweep_rates=(0.1, 0.5, 1.0),
        all_configurations=True,
    )
    print(sweep.to_table())
    print(f"engine: {runner.stats.summary()} across {runner.jobs} workers")
    print()


def live_injection() -> None:
    print("=== Timing simulation with live fault injection (MMM-TP) ===")
    config = evaluation_system_config(capacity_scale=8, timeslice_cycles=25_000)
    system = MixedModeMulticore.consolidated_server(
        reliable_workload="oltp",
        performance_workload="apache",
        policy="mmm-tp",
        reliable_vcpus=8,
        config=config,
        phase_scale=0.01,
        footprint_scale=1 / 8,
        fault_rates=FaultRates(
            store_address=0.003,        # TLB/datapath faults redirecting stores
            privileged_register=0.05,   # per-quantum privileged-register upsets
        ),
        seed=11,
    )
    result = system.run(total_cycles=60_000, warmup_cycles=15_000)
    injector = system.machine.fault_injector

    print(f"Faults injected while performance-mode cores were running: "
          f"{injector.injected_fault_count}")
    for name, value in injector.stats.items():
        print(f"    {name:32s}{int(value):6d}")
    print("Protection events observed:")
    for kind, count in sorted(result.violation_counts.items()):
        print(f"    {kind:32s}{count:6d}")
    print(f"Silent corruptions of reliable state: {result.silent_corruptions()}")
    print(f"Performance guest throughput was still "
          f"{result.vm('performance').throughput(result.total_cycles):.4f} "
          "user instructions per cycle -- protection does not cost it its speedup.")


def main() -> None:
    coverage_campaign()
    fault_space_sweep()
    live_injection()


if __name__ == "__main__":
    main()
