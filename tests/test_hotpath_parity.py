"""Exact-parity tests for the batched ``run_quantum`` hot path.

``CoreTimingModel.run_quantum`` is a batched rewrite of the original
per-instruction loop, which is retained as
``CoreTimingModel.run_quantum_reference`` -- the executable specification.
These tests build *two* machines from identical ``(config, vm_specs,
policy, seed)`` tuples (machine construction is fully deterministic), drive
one through the batched path and one through the reference path with the
same arguments, and require bit-identical results: cycle counts, committed
instruction counts, every statistic key and value, and every recorded
violation.

Bit-identity (not tolerance) is the contract: the batched loop performs
its float additions on the cycle accumulator in the same order as the
reference, draws from the shared RNG in the same order, and replicates the
reference's stats key-presence rules exactly.

Besides the hand-picked cases, :func:`test_parity_random_cases` draws cases
from a fixed ``random.Random`` seed over workload profile, execution mode,
contention, budget, start cycle and stop conditions.
"""

from __future__ import annotations

import random
from typing import Optional

import pytest

from repro.config.presets import paper_system_config
from repro.core.machine import MixedModeMachine, VmSpec
from repro.cpu.timing import CoreAssignment, ExecutionMode, StopReason
from repro.faults.injector import FaultRates
from repro.virt.vcpu import ReliabilityMode
from repro.workloads.profiles import PAPER_WORKLOAD_NAMES


def _build_machine(
    seed: int,
    fault_rates: Optional[FaultRates] = None,
    workloads: tuple = ("oltp", "apache"),
):
    config = paper_system_config().validate()
    reliable_workload, performance_workload = workloads
    specs = [
        VmSpec(
            name="reliable",
            workload=reliable_workload,
            num_vcpus=2,
            reliability=ReliabilityMode.RELIABLE,
            phase_scale=0.02,
        ),
        VmSpec(
            name="performance",
            workload=performance_workload,
            num_vcpus=2,
            reliability=ReliabilityMode.PERFORMANCE,
            phase_scale=0.02,
        ),
    ]
    return MixedModeMachine(
        config=config,
        vm_specs=specs,
        policy="mmm-tp",
        seed=seed,
        fault_rates=fault_rates,
    )


def _assignment(machine, mode: ExecutionMode) -> CoreAssignment:
    if mode is ExecutionMode.DMR:
        return CoreAssignment(
            mode=mode,
            primary_core=0,
            secondary_core=1,
            reunion_pair=machine.pair_factory(0, 1),
        )
    return CoreAssignment(mode=mode, primary_core=0)


def _run(machine, method_name: str, *, mode, vcpu_index, **kwargs):
    vcpu = machine.vcpus[vcpu_index]
    method = getattr(machine.timing_model, method_name)
    return method(
        workload=vcpu.workload,
        assignment=_assignment(machine, mode),
        vcpu_id=vcpu.vcpu_id,
        **kwargs,
    )


def _assert_identical(batched, reference):
    assert batched.cycles == reference.cycles
    assert batched.instructions == reference.instructions
    assert batched.user_instructions == reference.user_instructions
    assert batched.os_instructions == reference.os_instructions
    assert batched.stop_reason == reference.stop_reason
    assert batched.stats.as_dict() == reference.stats.as_dict()
    assert len(batched.violations) == len(reference.violations)
    for got, want in zip(batched.violations, reference.violations):
        assert got.kind == want.kind
        assert got.cycle == want.cycle
        assert got.core_id == want.core_id
        assert got.vcpu_id == want.vcpu_id
        assert got.physical_address == want.physical_address


def _compare_quanta(
    seed, *, mode, vcpu_index, quanta, fault_rates=None, workloads=("oltp", "apache"),
    start_cycle=0, require_progress=True, **kwargs,
):
    """Run ``quanta`` consecutive quanta through both paths and compare."""
    fast = _build_machine(seed, fault_rates=fault_rates, workloads=workloads)
    slow = _build_machine(seed, fault_rates=fault_rates, workloads=workloads)
    for index in range(quanta):
        start = start_cycle + index * kwargs.get("cycle_budget", 0)
        batched = _run(
            fast, "run_quantum", mode=mode, vcpu_index=vcpu_index,
            start_cycle=start, **kwargs,
        )
        reference = _run(
            slow, "run_quantum_reference", mode=mode, vcpu_index=vcpu_index,
            start_cycle=start, **kwargs,
        )
        _assert_identical(batched, reference)
        if require_progress:
            assert batched.instructions > 0


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_parity_baseline_mode(seed):
    _compare_quanta(seed, mode=ExecutionMode.BASELINE, vcpu_index=0,
                    quanta=3, cycle_budget=20_000)


@pytest.mark.parametrize("seed", [0, 3])
def test_parity_dmr_mode(seed):
    _compare_quanta(seed, mode=ExecutionMode.DMR, vcpu_index=0,
                    quanta=3, cycle_budget=20_000)


@pytest.mark.parametrize("seed", [0, 5])
def test_parity_performance_mode_with_pab(seed):
    # Performance-mode VCPUs (index 2/3) exercise the PAB check path.
    _compare_quanta(seed, mode=ExecutionMode.PERFORMANCE, vcpu_index=2,
                    quanta=3, cycle_budget=20_000)


def test_parity_with_contention():
    _compare_quanta(0, mode=ExecutionMode.PERFORMANCE, vcpu_index=2,
                    quanta=2, cycle_budget=15_000, active_cores=6)


def test_parity_stop_on_os_entry_and_exit():
    _compare_quanta(0, mode=ExecutionMode.BASELINE, vcpu_index=0,
                    quanta=4, cycle_budget=50_000, stop_on_os_entry=True)
    _compare_quanta(1, mode=ExecutionMode.BASELINE, vcpu_index=0,
                    quanta=4, cycle_budget=50_000, stop_on_os_exit=True)


def test_parity_max_instructions():
    _compare_quanta(0, mode=ExecutionMode.DMR, vcpu_index=0,
                    quanta=2, cycle_budget=500_000, max_instructions=1_234)


def test_parity_with_fault_hook():
    # High execution-fault rate so DMR corruption/recovery paths fire, and a
    # store-address rate so performance-mode redirection draws fire too.
    rates = FaultRates(execution_result=0.002, store_address=0.001)
    _compare_quanta(0, mode=ExecutionMode.DMR, vcpu_index=0,
                    quanta=3, cycle_budget=20_000, fault_rates=rates)
    _compare_quanta(2, mode=ExecutionMode.PERFORMANCE, vcpu_index=2,
                    quanta=3, cycle_budget=20_000, fault_rates=rates)


# Performance-mode VCPUs (index 2/3) run with the PAB; baseline and DMR
# drive the reliable VM's first VCPU.
_RANDOM_MODES = {
    "baseline": (ExecutionMode.BASELINE, 0),
    "dmr": (ExecutionMode.DMR, 0),
    "performance-pab": (ExecutionMode.PERFORMANCE, 2),
}
_RANDOM_QUANTA = 3


def _draw_random_cases(count: int, seed: int = 2009):
    """``count`` ``(id, _compare_quanta kwargs)`` pairs from a fixed seed."""
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        stop = rng.choice(("none", "os-entry", "os-exit", "max-instructions"))
        machine_seed = rng.randrange(1_000)
        # Both VMs run the drawn profile.
        workload = rng.choice(PAPER_WORKLOAD_NAMES)
        mode_name = rng.choice(sorted(_RANDOM_MODES))
        mode, vcpu_index = _RANDOM_MODES[mode_name]
        kwargs = {
            "seed": machine_seed,
            "mode": mode,
            "vcpu_index": vcpu_index,
            "workloads": (workload, workload),
            "active_cores": rng.choice((None, 1, 2, 4, 8, 16)),
            "cycle_budget": rng.randrange(5_000, 100_000),
            "start_cycle": rng.randrange(0, 2_000_000),
            "stop_on_os_entry": stop == "os-entry",
            "stop_on_os_exit": stop == "os-exit",
            "max_instructions": (
                rng.randrange(50, 1_000) if stop == "max-instructions" else None
            ),
        }
        cases.append((f"{workload}-{mode_name}-s{machine_seed}-{stop}", kwargs))
    return cases


_RANDOM_CASES = _draw_random_cases(24)


def test_random_cases_cover_every_axis():
    """The drawn cases span every axis, and every stop reason fires."""
    cases = [dict(kwargs) for _, kwargs in _RANDOM_CASES]
    assert {case["mode"] for case in cases} == set(ExecutionMode)
    assert {case["workloads"][0] for case in cases} == set(PAPER_WORKLOAD_NAMES)
    assert {case["active_cores"] is None for case in cases} == {True, False}
    reasons = set()
    for case in cases:
        machine = _build_machine(case.pop("seed"), workloads=case.pop("workloads"))
        start = case.pop("start_cycle")
        for index in range(_RANDOM_QUANTA):
            result = _run(
                machine, "run_quantum",
                start_cycle=start + index * case["cycle_budget"], **case,
            )
            reasons.add(result.stop_reason)
    assert reasons == set(StopReason)


@pytest.mark.parametrize(
    "kwargs",
    [kwargs for _, kwargs in _RANDOM_CASES],
    ids=[case_id for case_id, _ in _RANDOM_CASES],
)
def test_parity_random_cases(kwargs):
    # A quantum that stops on its first OS boundary may legitimately commit
    # nothing, so progress is not required -- only bit-identity.
    _compare_quanta(quanta=_RANDOM_QUANTA, require_progress=False, **kwargs)


def test_parity_fault_recovery_observed():
    """The fault-hook parity run above is only meaningful if recoveries
    actually happened; assert the scenario exercises them."""
    rates = FaultRates(execution_result=0.01)
    machine = _build_machine(0, fault_rates=rates)
    result = _run(
        machine, "run_quantum", mode=ExecutionMode.DMR, vcpu_index=0,
        cycle_budget=60_000,
    )
    assert result.stats.get("dmr_recoveries") > 0
