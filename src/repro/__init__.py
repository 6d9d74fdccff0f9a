"""Reproduction of "Mixed-Mode Multicore Reliability" (ASPLOS 2009).

The library builds, from scratch, a trace-driven multicore simulator (cores,
three-level cache hierarchy with MOSI directory coherence, TLBs, Reunion-style
dual-modular redundancy, PAT/PAB memory protection, hardware virtualisation)
and implements the paper's Mixed-Mode Multicore on top of it: MMM-IPC,
MMM-TP, the mode-transition state machine, and the protection mechanisms that
keep reliable applications safe from faults striking performance-mode cores.

Typical entry points:

* :class:`repro.MixedModeMulticore` -- build and run a system in a few lines,
* :data:`repro.sim.specs.EXPERIMENTS` -- regenerate each of the paper's
  tables and figures: ``EXPERIMENTS["figure5"].run(settings)`` returns a
  :class:`~repro.sim.frames.ResultFrame`, and
  :func:`repro.sim.experiments.run_all_experiments` runs them all as one
  batch,
* :class:`repro.faults.FaultInjectionCampaign` -- fault-coverage studies.
"""

from repro.config import paper_system_config, small_system_config
from repro.config.system import SystemConfig
from repro.core import (
    MixedModeMachine,
    MixedModeMulticore,
    ModeTransitionEngine,
    VmSpec,
    policy_by_name,
)
from repro.faults import FaultInjectionCampaign, FaultInjector, FaultRates
from repro.sim import SimulationOptions, SimulationResult, Simulator
from repro.virt.vcpu import ReliabilityMode
from repro.workloads import PAPER_WORKLOAD_NAMES, PAPER_WORKLOADS, get_profile

# Imported for its side effect: registers the "faults" job kind with the
# experiment engine.  Must come after repro.sim (it imports repro.sim.jobs),
# and must live here so process-pool workers -- which import this package to
# unpickle engine jobs -- always see the registration.
import repro.faults.cells  # noqa: E402  isort:skip

# Same side effect for the fleet subsystem: registers the "fleet" job kind.
import repro.sim.fleet.cells  # noqa: E402  isort:skip

# Same side effect for the fuzz subsystem: registers the "fuzz" job kind.
import repro.sim.fuzz.cells  # noqa: E402  isort:skip

__version__ = "1.0.0"

__all__ = [
    "paper_system_config",
    "small_system_config",
    "SystemConfig",
    "MixedModeMachine",
    "MixedModeMulticore",
    "ModeTransitionEngine",
    "VmSpec",
    "policy_by_name",
    "FaultInjectionCampaign",
    "FaultInjector",
    "FaultRates",
    "SimulationOptions",
    "SimulationResult",
    "Simulator",
    "ReliabilityMode",
    "PAPER_WORKLOAD_NAMES",
    "PAPER_WORKLOADS",
    "get_profile",
    "__version__",
]
