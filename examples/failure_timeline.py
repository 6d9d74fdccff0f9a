#!/usr/bin/env python3
"""Dynamic scenarios: reshape the machine mid-run with a timeline of events.

The paper's mixed-mode multicore adapts at runtime -- cores couple into DMR
pairs or are released for performance as demand and faults dictate.  This
example drives that adaptation explicitly: a Reunion DMR machine loses cores
to permanent faults on a schedule, and the simulator degrades gracefully by
re-pairing the surviving cores each quantum.

Two ways to run the same scenario are shown:

1. directly, with a :class:`repro.sim.timeline.Timeline` handed to the
   :class:`~repro.sim.simulator.Simulator` (full control over the event
   schedule -- policy changes, VM churn and fault bursts compose the same
   way), and
2. through the registered ``degradation`` experiment spec, which sweeps the
   failed-core axis through the parallel, cached experiment engine
   (``python -m repro degradation`` runs the same thing from the CLI).

Run with::

    python examples/failure_timeline.py
"""

from __future__ import annotations

from repro.core.machine import MixedModeMachine, VmSpec
from repro.config.presets import evaluation_system_config
from repro.sim.experiments import ExperimentSettings
from repro.sim.simulator import SimulationOptions, Simulator
from repro.sim.specs import EXPERIMENTS
from repro.sim.timeline import CoreFailed, PolicyChanged, Timeline
from repro.virt.vcpu import ReliabilityMode

CONFIG = evaluation_system_config(capacity_scale=16, timeslice_cycles=6_000)
OPTIONS = SimulationOptions(total_cycles=24_000, warmup_cycles=6_000)


def build_machine() -> MixedModeMachine:
    """Eight reliable VCPUs on sixteen cores: the Reunion DMR configuration."""
    spec = VmSpec(
        name="baseline",
        workload="oltp",
        num_vcpus=CONFIG.num_cores // 2,
        reliability=ReliabilityMode.RELIABLE,
        phase_scale=0.005,
        footprint_scale=1 / 16,
    )
    return MixedModeMachine(config=CONFIG, vm_specs=[spec], policy="dmr-base", seed=0)


def main() -> None:
    print("1. One run, cores failing mid-measurement")
    print("-" * 58)
    # Four permanent faults strike at evenly spaced cycles; after the last
    # one, privileged software gives up on universal DMR and switches the
    # survivors to MMM-TP so the paused VCPUs run again (unprotected).
    timeline = Timeline.of(
        CoreFailed(cycle=9_000, core_id=15),
        CoreFailed(cycle=12_000, core_id=14),
        CoreFailed(cycle=15_000, core_id=13),
        CoreFailed(cycle=18_000, core_id=12),
        PolicyChanged(cycle=21_000, policy="mmm-tp"),
    )
    result = Simulator(build_machine(), OPTIONS, timeline=timeline).run()
    print(f"events applied:        {result.timeline_events_applied}")
    print(f"per-kind counts:       {result.timeline_stats}")
    print(f"paused VCPU quanta:    {result.paused_vcpu_quanta}")
    print(f"final policy:          {result.policy_name}")
    print(f"overall throughput:    {result.overall_throughput():.4f} user instr/cycle")
    used = result.quantum_stats.get("core_cycles_used", 0.0)
    capacity = result.quantum_stats.get("core_cycles_capacity", 0.0)
    print(f"core utilisation:      {used / capacity:.2%}" if capacity else "n/a")

    print()
    print("2. The same scenario as a sweep (the `degradation` spec)")
    print("-" * 58)
    settings = ExperimentSettings.quick().with_workloads(("oltp",))
    sweep = EXPERIMENTS["degradation"].run(
        settings, explicit_workloads=True, failures=(0, 2, 4, 6)
    )
    print(sweep.to_table())
    normalized = sweep.normalized("throughput", "failed_cores", 0, workload="oltp")
    num_cores = settings.config().num_cores
    print()
    for failed, fraction in normalized.items():
        survivors = num_cores - failed
        print(f"  {survivors:2d} surviving cores -> {fraction:6.1%} of full throughput")


if __name__ == "__main__":
    main()
