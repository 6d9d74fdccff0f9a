"""Per-figure / per-table experiment entry points and legacy result views.

Every table and figure of the paper's evaluation (Section 5) has one function
here that runs the corresponding :class:`~repro.sim.specs.ExperimentSpec`
and returns a structured result object with the same rows/series the paper
reports:

======================  =====================================================
Paper artefact          Entry point
======================  =====================================================
Figure 5(a)/(b)         :func:`run_dmr_overhead_experiment`
Figure 6(a)/(b)         :func:`run_mixed_mode_experiment`
Section 5.2 (PAB)       :func:`run_pab_latency_study`
Table 1                 :func:`run_switch_overhead_experiment`
Table 2                 :func:`run_switch_frequency_experiment`
Section 5.3 bottom line :func:`run_single_os_overhead_study`
Window/TSO ablation     :func:`run_window_ablation`
Sections 2.1/3.4 faults :func:`run_fault_coverage_experiment`
Fault-space sweep       :func:`run_fault_rate_sweep`
Everything at once      :func:`run_all_experiments`
======================  =====================================================

All experiments share :class:`ExperimentSettings` (see
:mod:`repro.sim.settings`), which holds the scaled-down run lengths and the
capacity/footprint scale factor so that the whole evaluation completes on a
laptop while preserving the relative behaviour the paper reports.

Since the frame redesign, the single source of aggregation is the
schema-driven :class:`~repro.sim.frames.ResultFrame`: each spec declares a
:class:`~repro.sim.frames.MetricSchema` and running it yields a frame.  The
dataclasses in this module are *views* over those frames -- they keep the
familiar per-row attribute access and the paper-shaped ``format_*`` tables,
but no longer aggregate anything themselves.  This module keeps the domain
pieces the specs are built from (the job enumerators and timeline builders)
plus the view constructors; :func:`run_all_experiments` iterates the
``EXPERIMENTS`` registry, enumerates *every* spec's cells into one batch,
and returns one frame per spec.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from repro.analysis.metrics import normalize_to, percent_change
from repro.analysis.tables import TextTable
from repro.common.stats import ConfidenceInterval, confidence_interval_95, mean
from repro.config.presets import evaluation_system_config, paper_system_config
from repro.config.system import PabLookupMode, SystemConfig
from repro.errors import ExperimentError
from repro.faults.campaign import (
    DEFAULT_CONFIGURATIONS,
    SWEEP_CONFIGURATIONS,
    CampaignConfiguration,
)
from repro.faults.cells import assemble_campaign_reports, fault_campaign_jobs
from repro.faults.outcomes import CoverageReport
from repro.sim.frames import ResultFrame, frames_document
from repro.sim.jobs import (
    ABLATION_VARIANTS,
    FIGURE5_CONFIGS,
    FIGURE6_CONFIGS,
    ExperimentJob,
)
from repro.sim.runner import ExperimentRunner, default_runner
from repro.sim.settings import PAPER_TIMESLICE_CYCLES, ExperimentSettings
from repro.sim.store import Metrics
from repro.sim.timeline import CoreFailed, Timeline, VmArrived, VmDeparted
from repro.workloads.profiles import PAPER_WORKLOAD_NAMES

__all__ = [
    "PAPER_TIMESLICE_CYCLES",
    "ExperimentSettings",
    "FIGURE5_CONFIGS",
    "FIGURE6_CONFIGS",
    "ABLATION_VARIANTS",
    "DmrOverheadRow",
    "DmrOverheadResult",
    "MixedModeRow",
    "MixedModeResult",
    "PabLatencyRow",
    "PabLatencyResult",
    "SwitchOverheadRow",
    "SwitchOverheadResult",
    "SwitchFrequencyRow",
    "SwitchFrequencyResult",
    "SingleOsOverheadRow",
    "SingleOsOverheadResult",
    "WindowAblationRow",
    "WindowAblationResult",
    "DegradationRow",
    "DegradationResult",
    "ConsolidationChurnRow",
    "ConsolidationChurnResult",
    "FaultCoverageRow",
    "FaultCoverageResult",
    "FaultRateSweepResult",
    "FAULT_DEFAULT_SEEDS",
    "FAULT_COVERAGE_TITLE",
    "AllExperimentsResult",
    "figure5_jobs",
    "figure6_jobs",
    "pab_jobs",
    "switch_overhead_jobs",
    "switch_frequency_jobs",
    "window_ablation_jobs",
    "degradation_timeline",
    "degradation_jobs",
    "churn_timeline",
    "churn_jobs",
    "fault_campaign_jobs",
    "assemble_fault_coverage",
    "combine_single_os",
    "collect_frames",
    "run_dmr_overhead_experiment",
    "run_mixed_mode_experiment",
    "run_pab_latency_study",
    "run_switch_overhead_experiment",
    "run_switch_frequency_experiment",
    "run_single_os_overhead_study",
    "run_window_ablation",
    "run_degradation_experiment",
    "run_consolidation_churn_experiment",
    "run_fault_coverage_experiment",
    "run_fault_rate_sweep",
    "run_all_experiments",
]

JobResults = Mapping[ExperimentJob, Metrics]


# ===================================================================== #
# Figure 5: overhead of dual redundancy
# ===================================================================== #


@dataclass
class DmrOverheadRow:
    """One workload's Figure 5 data."""

    workload: str
    per_thread_ipc: Dict[str, ConfidenceInterval]
    throughput: Dict[str, ConfidenceInterval]

    def normalized_ipc(self) -> Dict[str, float]:
        """Per-thread IPC normalised to the ``no-dmr-2x`` configuration."""
        return normalize_to(
            {name: ci.mean for name, ci in self.per_thread_ipc.items()}, "no-dmr-2x"
        )

    def normalized_throughput(self) -> Dict[str, float]:
        """Throughput normalised to the ``no-dmr-2x`` configuration."""
        return normalize_to(
            {name: ci.mean for name, ci in self.throughput.items()}, "no-dmr-2x"
        )


@dataclass
class DmrOverheadResult:
    """Figure 5(a) and 5(b) of the paper (a view over the ``figure5`` frame)."""

    settings: ExperimentSettings
    rows: List[DmrOverheadRow] = field(default_factory=list)

    @classmethod
    def from_frame(
        cls, settings: ExperimentSettings, frame: ResultFrame
    ) -> "DmrOverheadResult":
        """Re-shape the schema-assembled frame into the legacy row view."""
        result = cls(settings=settings)
        configurations = frame.axis_values("configuration")
        for workload in frame.axis_values("workload"):
            result.rows.append(
                DmrOverheadRow(
                    workload=str(workload),
                    per_thread_ipc={
                        str(c): frame.value("user_ipc", workload=workload, configuration=c)
                        for c in configurations
                    },
                    throughput={
                        str(c): frame.value("throughput", workload=workload, configuration=c)
                        for c in configurations
                    },
                )
            )
        return result

    def row(self, workload: str) -> DmrOverheadRow:
        """Row for one workload."""
        for row in self.rows:
            if row.workload == workload:
                return row
        raise ExperimentError(f"no Figure 5 row for workload {workload!r}")

    def format_ipc_table(self) -> str:
        """Figure 5(a): normalised per-thread user IPC."""
        table = TextTable(
            ["workload", *FIGURE5_CONFIGS],
            title="Figure 5(a): per-thread user IPC (normalised to No DMR 2X)",
        )
        for row in self.rows:
            normalized = row.normalized_ipc()
            table.add_row([row.workload, *[normalized[c] for c in FIGURE5_CONFIGS]])
        return table.render()

    def format_throughput_table(self) -> str:
        """Figure 5(b): normalised overall throughput."""
        table = TextTable(
            ["workload", *FIGURE5_CONFIGS],
            title="Figure 5(b): overall throughput (normalised to No DMR 2X)",
        )
        for row in self.rows:
            normalized = row.normalized_throughput()
            table.add_row([row.workload, *[normalized[c] for c in FIGURE5_CONFIGS]])
        return table.render()


def figure5_jobs(settings: ExperimentSettings) -> List[ExperimentJob]:
    """Every (workload, configuration, seed) cell of Figure 5."""
    cell = settings.cell_settings()
    return [
        ExperimentJob(
            kind="figure5", workload=workload, variant=configuration, seed=seed,
            settings=cell,
        )
        for workload in settings.workloads
        for configuration in FIGURE5_CONFIGS
        for seed in settings.seeds
    ]


def run_dmr_overhead_experiment(
    settings: Optional[ExperimentSettings] = None,
    runner: Optional[ExperimentRunner] = None,
) -> DmrOverheadResult:
    """Reproduce Figure 5: per-thread IPC and throughput of DMR vs. no DMR.

    Thin view over the registered ``figure5`` spec's frame.
    """
    from repro.sim.specs import experiment

    run = experiment("figure5").execute(settings, runner=runner)
    return DmrOverheadResult.from_frame(run.request.settings, run.frame())


# ===================================================================== #
# Figure 6: mixed-mode performance
# ===================================================================== #


@dataclass
class MixedModeRow:
    """One workload's Figure 6 data."""

    workload: str
    reliable_ipc: Dict[str, ConfidenceInterval]
    performance_ipc: Dict[str, ConfidenceInterval]
    reliable_throughput: Dict[str, ConfidenceInterval]
    performance_throughput: Dict[str, ConfidenceInterval]
    overall_throughput: Dict[str, ConfidenceInterval]

    def normalized_performance_ipc(self) -> Dict[str, float]:
        """Performance-VM per-thread IPC normalised to DMR Base."""
        return normalize_to(
            {name: ci.mean for name, ci in self.performance_ipc.items()}, "dmr-base"
        )

    def normalized_reliable_ipc(self) -> Dict[str, float]:
        """Reliable-VM per-thread IPC normalised to DMR Base."""
        return normalize_to(
            {name: ci.mean for name, ci in self.reliable_ipc.items()}, "dmr-base"
        )

    def normalized_performance_throughput(self) -> Dict[str, float]:
        """Performance-VM throughput normalised to DMR Base."""
        return normalize_to(
            {name: ci.mean for name, ci in self.performance_throughput.items()},
            "dmr-base",
        )

    def normalized_overall_throughput(self) -> Dict[str, float]:
        """Machine-wide throughput normalised to DMR Base."""
        return normalize_to(
            {name: ci.mean for name, ci in self.overall_throughput.items()}, "dmr-base"
        )


_FIGURE6_SERIES = (
    "reliable_ipc",
    "performance_ipc",
    "reliable_throughput",
    "performance_throughput",
    "overall_throughput",
)


@dataclass
class MixedModeResult:
    """Figure 6(a) and 6(b) of the paper (a view over the ``figure6`` frame)."""

    settings: ExperimentSettings
    rows: List[MixedModeRow] = field(default_factory=list)

    @classmethod
    def from_frame(
        cls, settings: ExperimentSettings, frame: ResultFrame
    ) -> "MixedModeResult":
        """Re-shape the schema-assembled frame into the legacy row view."""
        result = cls(settings=settings)
        configurations = frame.axis_values("configuration")
        for workload in frame.axis_values("workload"):
            series = {
                name: {
                    str(c): frame.value(name, workload=workload, configuration=c)
                    for c in configurations
                }
                for name in _FIGURE6_SERIES
            }
            result.rows.append(MixedModeRow(workload=str(workload), **series))
        return result

    def row(self, workload: str) -> MixedModeRow:
        """Row for one workload."""
        for row in self.rows:
            if row.workload == workload:
                return row
        raise ExperimentError(f"no Figure 6 row for workload {workload!r}")

    def format_ipc_table(self) -> str:
        """Figure 6(a): normalised per-thread IPC of each guest VM."""
        table = TextTable(
            ["workload", "vm", *FIGURE6_CONFIGS],
            title="Figure 6(a): per-thread user IPC (normalised to DMR Base)",
        )
        for row in self.rows:
            reliable = row.normalized_reliable_ipc()
            performance = row.normalized_performance_ipc()
            table.add_row(
                [row.workload, "reliable", *[reliable[c] for c in FIGURE6_CONFIGS]]
            )
            table.add_row(
                [row.workload, "performance", *[performance[c] for c in FIGURE6_CONFIGS]]
            )
        return table.render()

    def format_throughput_table(self) -> str:
        """Figure 6(b): normalised throughput (performance VM and overall)."""
        table = TextTable(
            ["workload", "series", *FIGURE6_CONFIGS],
            title="Figure 6(b): throughput (normalised to DMR Base)",
        )
        for row in self.rows:
            perf = row.normalized_performance_throughput()
            overall = row.normalized_overall_throughput()
            table.add_row(
                [row.workload, "performance-vm", *[perf[c] for c in FIGURE6_CONFIGS]]
            )
            table.add_row(
                [row.workload, "overall", *[overall[c] for c in FIGURE6_CONFIGS]]
            )
        return table.render()


def figure6_jobs(
    settings: ExperimentSettings,
    configurations: Sequence[str] = FIGURE6_CONFIGS,
) -> List[ExperimentJob]:
    """Every (workload, configuration, seed) cell of Figure 6."""
    cell = settings.cell_settings()
    return [
        ExperimentJob(
            kind="figure6", workload=workload, variant=configuration, seed=seed,
            settings=cell,
        )
        for workload in settings.workloads
        for configuration in configurations
        for seed in settings.seeds
    ]


def run_mixed_mode_experiment(
    settings: Optional[ExperimentSettings] = None,
    configurations: Sequence[str] = FIGURE6_CONFIGS,
    runner: Optional[ExperimentRunner] = None,
) -> MixedModeResult:
    """Reproduce Figure 6: mixed-mode consolidated-server performance.

    Thin view over the registered ``figure6`` spec's frame.
    """
    from repro.sim.specs import experiment

    run = experiment("figure6").execute(
        settings, runner=runner, configurations=tuple(configurations)
    )
    return MixedModeResult.from_frame(run.request.settings, run.frame())


# ===================================================================== #
# Section 5.2: effect of PAB latency
# ===================================================================== #


@dataclass
class PabLatencyRow:
    """One workload's serial-vs-parallel PAB comparison."""

    workload: str
    parallel_ipc: float
    serial_ipc: float
    reliable_parallel_ipc: float
    reliable_serial_ipc: float

    @property
    def performance_ipc_change_percent(self) -> float:
        """IPC change of the performance VM when the PAB lookup is serialised."""
        return percent_change(self.serial_ipc, self.parallel_ipc)

    @property
    def reliable_ipc_change_percent(self) -> float:
        """IPC change of the reliable VM (expected to be ~0: it never uses the PAB)."""
        return percent_change(self.reliable_serial_ipc, self.reliable_parallel_ipc)


@dataclass
class PabLatencyResult:
    """Section 5.2's serial-PAB sensitivity study (a view over the ``pab`` frame)."""

    settings: ExperimentSettings
    rows: List[PabLatencyRow] = field(default_factory=list)

    @classmethod
    def from_frame(
        cls, settings: ExperimentSettings, frame: ResultFrame
    ) -> "PabLatencyResult":
        """Re-shape the schema-assembled frame into the legacy row view."""
        result = cls(settings=settings)
        parallel = PabLookupMode.PARALLEL.value
        serial = PabLookupMode.SERIAL.value
        for workload in frame.axis_values("workload"):
            result.rows.append(
                PabLatencyRow(
                    workload=str(workload),
                    parallel_ipc=frame.value(
                        "performance_ipc", workload=workload, lookup=parallel
                    ),
                    serial_ipc=frame.value(
                        "performance_ipc", workload=workload, lookup=serial
                    ),
                    reliable_parallel_ipc=frame.value(
                        "reliable_ipc", workload=workload, lookup=parallel
                    ),
                    reliable_serial_ipc=frame.value(
                        "reliable_ipc", workload=workload, lookup=serial
                    ),
                )
            )
        return result

    def format_table(self) -> str:
        """Render the study as a table of IPC changes."""
        table = TextTable(
            ["workload", "parallel ipc", "serial ipc", "perf change %", "reliable change %"],
            title="Effect of a 2-cycle serial PAB lookup (MMM-TP, performance VM)",
        )
        for row in self.rows:
            table.add_row(
                [
                    row.workload,
                    row.parallel_ipc,
                    row.serial_ipc,
                    row.performance_ipc_change_percent,
                    row.reliable_ipc_change_percent,
                ]
            )
        return table.render()


def pab_jobs(settings: ExperimentSettings) -> List[ExperimentJob]:
    """Every (workload, lookup-mode, seed) cell of the PAB latency study."""
    cell = settings.cell_settings()
    return [
        ExperimentJob(
            kind="pab", workload=workload, variant=mode.value, seed=seed, settings=cell,
        )
        for workload in settings.workloads
        for mode in (PabLookupMode.PARALLEL, PabLookupMode.SERIAL)
        for seed in settings.seeds
    ]


def run_pab_latency_study(
    settings: Optional[ExperimentSettings] = None,
    runner: Optional[ExperimentRunner] = None,
) -> PabLatencyResult:
    """Reproduce the serial-vs-parallel PAB lookup comparison of Section 5.2.

    Thin view over the registered ``pab`` spec's frame.
    """
    from repro.sim.specs import experiment

    run = experiment("pab").execute(settings, runner=runner)
    return PabLatencyResult.from_frame(run.request.settings, run.frame())


# ===================================================================== #
# Table 1: mode-switching overheads
# ===================================================================== #


@dataclass
class SwitchOverheadRow:
    """One workload's Table 1 data (cycles)."""

    workload: str
    enter_dmr_cycles: float
    leave_dmr_cycles: float


@dataclass
class SwitchOverheadResult:
    """Table 1 of the paper (a view over the ``table1`` frame)."""

    rows: List[SwitchOverheadRow] = field(default_factory=list)

    @classmethod
    def from_frame(cls, frame: ResultFrame) -> "SwitchOverheadResult":
        """Re-shape the schema-assembled frame into the legacy row view."""
        result = cls()
        for row in frame.rows:
            result.rows.append(
                SwitchOverheadRow(
                    workload=str(row["workload"]),
                    enter_dmr_cycles=row["enter_dmr_cycles"],
                    leave_dmr_cycles=row["leave_dmr_cycles"],
                )
            )
        return result

    def row(self, workload: str) -> SwitchOverheadRow:
        """Row for one workload."""
        for row in self.rows:
            if row.workload == workload:
                return row
        raise ExperimentError(f"no Table 1 row for workload {workload!r}")

    def format_table(self) -> str:
        """Render Table 1."""
        table = TextTable(
            ["workload", "Enter DMR", "Leave DMR"],
            title="Table 1: mixed-mode switching overheads (cycles, MMM-TP)",
        )
        for row in self.rows:
            table.add_row(
                [row.workload, f"{row.enter_dmr_cycles:.0f}", f"{row.leave_dmr_cycles:.0f}"]
            )
        return table.render()

    def average_round_trip_cycles(self) -> float:
        """Average cost of one Enter + Leave pair across workloads."""
        if not self.rows:
            return 0.0
        return mean(row.enter_dmr_cycles + row.leave_dmr_cycles for row in self.rows)


def switch_overhead_jobs(
    workloads: Sequence[str] = PAPER_WORKLOAD_NAMES,
    transitions_to_measure: int = 8,
    warmup_cycles: int = 8_000,
    config: Optional[SystemConfig] = None,
    seed: int = 0,
) -> List[ExperimentJob]:
    """One Table 1 cell per workload."""
    resolved = (config or paper_system_config()).validate()
    params = (
        ("transitions_to_measure", int(transitions_to_measure)),
        ("warmup_cycles", int(warmup_cycles)),
    )
    return [
        ExperimentJob(
            kind="table1", workload=workload, seed=seed, config=resolved, params=params,
        )
        for workload in workloads
    ]


def run_switch_overhead_experiment(
    workloads: Sequence[str] = PAPER_WORKLOAD_NAMES,
    transitions_to_measure: int = 8,
    warmup_cycles: int = 8_000,
    config: Optional[SystemConfig] = None,
    seed: int = 0,
    runner: Optional[ExperimentRunner] = None,
) -> SwitchOverheadResult:
    """Reproduce Table 1: the cycle cost of Enter-DMR and Leave-DMR.

    Unlike the timing experiments this uses the *full-size* paper
    configuration by default, because the Leave-DMR cost is dominated by the
    one-line-per-cycle flush of the 512 KB (8192-line) L2.

    Thin view over the registered ``table1`` spec's frame.
    """
    from repro.sim.specs import experiment

    settings = (
        ExperimentSettings().with_workloads(tuple(workloads)).with_seeds((seed,))
    )
    run = experiment("table1").execute(
        settings,
        runner=runner,
        explicit_workloads=True,
        transitions_to_measure=transitions_to_measure,
        warmup_cycles=warmup_cycles,
        config=config,
    )
    return SwitchOverheadResult.from_frame(run.frame())


# ===================================================================== #
# Table 2: cycles before switching modes (single-OS)
# ===================================================================== #


@dataclass
class SwitchFrequencyRow:
    """One workload's Table 2 data (cycles, extrapolated to full-size phases)."""

    workload: str
    user_cycles: float
    os_cycles: float

    @property
    def round_trip_cycles(self) -> float:
        """User plus OS cycles for one enter/exit round trip."""
        return self.user_cycles + self.os_cycles


@dataclass
class SwitchFrequencyResult:
    """Table 2 of the paper (a view over the ``table2`` frame)."""

    rows: List[SwitchFrequencyRow] = field(default_factory=list)

    @classmethod
    def from_frame(cls, frame: ResultFrame) -> "SwitchFrequencyResult":
        """Re-shape the schema-assembled frame into the legacy row view."""
        result = cls()
        for row in frame.rows:
            result.rows.append(
                SwitchFrequencyRow(
                    workload=str(row["workload"]),
                    user_cycles=row["user_cycles"],
                    os_cycles=row["os_cycles"],
                )
            )
        return result

    def row(self, workload: str) -> SwitchFrequencyRow:
        """Row for one workload."""
        for row in self.rows:
            if row.workload == workload:
                return row
        raise ExperimentError(f"no Table 2 row for workload {workload!r}")

    def format_table(self) -> str:
        """Render Table 2."""
        table = TextTable(
            ["workload", "User Cycles", "OS Cycles"],
            title="Table 2: cycles before switching modes (single-OS, non-DMR baseline)",
        )
        for row in self.rows:
            table.add_row(
                [row.workload, f"{row.user_cycles / 1000:.0f}k", f"{row.os_cycles / 1000:.0f}k"]
            )
        return table.render()


def switch_frequency_jobs(
    workloads: Sequence[str] = PAPER_WORKLOAD_NAMES,
    phases_to_measure: int = 3,
    measurement_phase_scale: float = 0.1,
    config: Optional[SystemConfig] = None,
    seed: int = 0,
) -> List[ExperimentJob]:
    """One Table 2 cell per workload."""
    resolved = (config or evaluation_system_config()).validate()
    params = (
        ("phases_to_measure", int(phases_to_measure)),
        ("measurement_phase_scale", float(measurement_phase_scale)),
    )
    return [
        ExperimentJob(
            kind="table2", workload=workload, seed=seed, config=resolved, params=params,
        )
        for workload in workloads
    ]


def run_switch_frequency_experiment(
    workloads: Sequence[str] = PAPER_WORKLOAD_NAMES,
    phases_to_measure: int = 3,
    measurement_phase_scale: float = 0.1,
    config: Optional[SystemConfig] = None,
    seed: int = 0,
    runner: Optional[ExperimentRunner] = None,
) -> SwitchFrequencyResult:
    """Reproduce Table 2: average user and OS cycles between mode switches.

    The measurement runs a single VCPU of each workload on the non-DMR
    baseline and times each user phase (up to the OS entry) and each OS phase
    (up to the OS exit).  Phases are generated at ``measurement_phase_scale``
    of their full length and the measured cycles are scaled back up, which
    keeps the measurement cheap without changing the achieved IPC.

    Thin view over the registered ``table2`` spec's frame.
    """
    from repro.sim.specs import experiment

    settings = (
        ExperimentSettings().with_workloads(tuple(workloads)).with_seeds((seed,))
    )
    run = experiment("table2").execute(
        settings,
        runner=runner,
        explicit_workloads=True,
        phases_to_measure=phases_to_measure,
        measurement_phase_scale=measurement_phase_scale,
        config=config,
    )
    return SwitchFrequencyResult.from_frame(run.frame())


# ===================================================================== #
# Section 5.3: single-OS mode-switching overhead
# ===================================================================== #


@dataclass
class SingleOsOverheadRow:
    """Estimated single-OS mode-switching overhead for one workload."""

    workload: str
    switch_cycles: float
    round_trip_cycles: float

    @property
    def overhead_percent(self) -> float:
        """Switching cycles as a share of one user+OS round trip."""
        total = self.round_trip_cycles + self.switch_cycles
        if total == 0:
            return 0.0
        return self.switch_cycles / total * 100.0


@dataclass
class SingleOsOverheadResult:
    """The bottom-line analysis at the end of Section 5.3."""

    rows: List[SingleOsOverheadRow] = field(default_factory=list)

    @classmethod
    def from_frame(cls, frame: ResultFrame) -> "SingleOsOverheadResult":
        """Re-shape the schema-assembled frame into the legacy row view."""
        result = cls()
        for row in frame.rows:
            result.rows.append(
                SingleOsOverheadRow(
                    workload=str(row["workload"]),
                    switch_cycles=row["switch_cycles"],
                    round_trip_cycles=row["round_trip_cycles"],
                )
            )
        return result

    def format_table(self) -> str:
        """Render the overhead estimate."""
        table = TextTable(
            ["workload", "switch cycles", "user+OS cycles", "overhead %"],
            title="Single-OS mode-switching overhead (Table 1 + Table 2 combined)",
        )
        for row in self.rows:
            table.add_row(
                [
                    row.workload,
                    f"{row.switch_cycles:.0f}",
                    f"{row.round_trip_cycles / 1000:.0f}k",
                    row.overhead_percent,
                ]
            )
        return table.render()


def combine_single_os(
    switch_overheads: SwitchOverheadResult,
    switch_frequency: SwitchFrequencyResult,
    workloads: Sequence[str] = PAPER_WORKLOAD_NAMES,
) -> SingleOsOverheadResult:
    """Fold Table 1 and Table 2 rows into the single-OS overhead estimate."""
    result = SingleOsOverheadResult()
    for workload in workloads:
        overhead_row = switch_overheads.row(workload)
        frequency_row = switch_frequency.row(workload)
        result.rows.append(
            SingleOsOverheadRow(
                workload=workload,
                switch_cycles=overhead_row.enter_dmr_cycles + overhead_row.leave_dmr_cycles,
                round_trip_cycles=frequency_row.round_trip_cycles,
            )
        )
    return result


def run_single_os_overhead_study(
    switch_overheads: Optional[SwitchOverheadResult] = None,
    switch_frequency: Optional[SwitchFrequencyResult] = None,
    workloads: Sequence[str] = PAPER_WORKLOAD_NAMES,
    runner: Optional[ExperimentRunner] = None,
    seed: int = 0,
) -> SingleOsOverheadResult:
    """Combine Table 1 and Table 2 into the paper's single-OS overhead estimate.

    With neither table given, this is a thin view over the registered
    ``single-os`` spec's frame (one batch containing both tables' cells);
    existing results are combined without running anything.
    """
    if switch_overheads is None and switch_frequency is None:
        from repro.sim.specs import experiment

        settings = (
            ExperimentSettings().with_workloads(tuple(workloads)).with_seeds((seed,))
        )
        run = experiment("single-os").execute(
            settings, runner=runner, explicit_workloads=True
        )
        return SingleOsOverheadResult.from_frame(run.frame())
    switch_overheads = switch_overheads or run_switch_overhead_experiment(
        workloads, seed=seed, runner=runner
    )
    switch_frequency = switch_frequency or run_switch_frequency_experiment(
        workloads, seed=seed, runner=runner
    )
    return combine_single_os(switch_overheads, switch_frequency, workloads)


# ===================================================================== #
# Ablation: instruction window size and consistency model
# ===================================================================== #


@dataclass
class WindowAblationRow:
    """Reunion IPC under different window / consistency configurations."""

    workload: str
    ipc_by_variant: Dict[str, float]

    def normalized(self) -> Dict[str, float]:
        """IPC normalised to the paper's configuration (128-entry window, SC)."""
        return normalize_to(self.ipc_by_variant, "window128-sc")


@dataclass
class WindowAblationResult:
    """The design-space ablation behind Section 5.1's prior-work comparison."""

    settings: ExperimentSettings
    rows: List[WindowAblationRow] = field(default_factory=list)

    @classmethod
    def from_frame(
        cls, settings: ExperimentSettings, frame: ResultFrame
    ) -> "WindowAblationResult":
        """Re-shape the schema-assembled frame into the legacy row view."""
        result = cls(settings=settings)
        variants = frame.axis_values("variant")
        for workload in frame.axis_values("workload"):
            result.rows.append(
                WindowAblationRow(
                    workload=str(workload),
                    ipc_by_variant={
                        str(v): frame.value("user_ipc", workload=workload, variant=v)
                        for v in variants
                    },
                )
            )
        return result

    def format_table(self) -> str:
        """Render the ablation."""
        variants = list(self.rows[0].ipc_by_variant) if self.rows else []
        table = TextTable(
            ["workload", *variants],
            title="Reunion per-thread IPC vs window size / consistency (normalised)",
        )
        for row in self.rows:
            normalized = row.normalized()
            table.add_row([row.workload, *[normalized[v] for v in variants]])
        return table.render()


def window_ablation_jobs(settings: ExperimentSettings) -> List[ExperimentJob]:
    """One ablation cell per (workload, variant)."""
    cell = settings.cell_settings()
    seed = settings.seeds[0]
    return [
        ExperimentJob(
            kind="ablation", workload=workload, variant=variant, seed=seed,
            settings=cell,
        )
        for workload in settings.workloads
        for variant in ABLATION_VARIANTS
    ]


def run_window_ablation(
    settings: Optional[ExperimentSettings] = None,
    runner: Optional[ExperimentRunner] = None,
) -> WindowAblationResult:
    """Reproduce the prior-work comparison: a larger window and a TSO store
    buffer recover much of Reunion's IPC loss.

    Thin view over the registered ``ablation`` spec's frame; without
    explicit settings the spec's workload limit restricts the sweep to two
    workloads.
    """
    from repro.sim.specs import experiment

    run = experiment("ablation").execute(
        settings, runner=runner, explicit_workloads=settings is not None
    )
    return WindowAblationResult.from_frame(run.request.settings, run.frame())


# ===================================================================== #
# Dynamic scenarios: graceful degradation under accumulating core failures
# ===================================================================== #


@dataclass
class DegradationRow:
    """One workload's throughput/IPC across the failed-core sweep."""

    workload: str
    #: Keyed by the number of failed cores.
    throughput: Dict[int, ConfidenceInterval]
    user_ipc: Dict[int, ConfidenceInterval]
    paused_quanta: Dict[int, float]

    def normalized_throughput(self) -> Dict[int, float]:
        """Throughput normalised to the healthiest (fewest failures) cell."""
        baseline = self.throughput[min(self.throughput)].mean
        if baseline == 0:
            return {failed: 0.0 for failed in self.throughput}
        return {
            failed: interval.mean / baseline
            for failed, interval in self.throughput.items()
        }


@dataclass
class DegradationResult:
    """Graceful degradation: cores fail on a schedule mid-run."""

    settings: ExperimentSettings
    failures: Sequence[int]
    num_cores: int
    rows: List[DegradationRow] = field(default_factory=list)

    @classmethod
    def from_frame(
        cls, settings: ExperimentSettings, frame: ResultFrame
    ) -> "DegradationResult":
        """Re-shape the schema-assembled frame into the legacy row view."""
        failures = tuple(int(f) for f in frame.axis_values("failed_cores"))
        result = cls(
            settings=settings,
            failures=failures,
            num_cores=settings.config().num_cores,
        )
        for workload in frame.axis_values("workload"):
            result.rows.append(
                DegradationRow(
                    workload=str(workload),
                    throughput={
                        failed: frame.value(
                            "throughput", workload=workload, failed_cores=failed
                        )
                        for failed in failures
                    },
                    user_ipc={
                        failed: frame.value(
                            "user_ipc", workload=workload, failed_cores=failed
                        )
                        for failed in failures
                    },
                    paused_quanta={
                        failed: frame.value(
                            "paused_vcpu_quanta", workload=workload, failed_cores=failed
                        )
                        for failed in failures
                    },
                )
            )
        return result

    def row(self, workload: str) -> DegradationRow:
        """Row for one workload."""
        for row in self.rows:
            if row.workload == workload:
                return row
        raise ExperimentError(f"no degradation row for workload {workload!r}")

    def format_table(self) -> str:
        """Render throughput against the surviving-core count."""
        table = TextTable(
            [
                "workload",
                *[f"{self.num_cores - failed} cores" for failed in self.failures],
            ],
            title=(
                "Graceful degradation: overall throughput vs surviving cores "
                "(cores fail mid-run; Reunion DMR machine)"
            ),
        )
        for row in self.rows:
            table.add_row(
                [
                    row.workload,
                    *[row.throughput[failed].mean for failed in self.failures],
                ]
            )
        return table.render()


def degradation_timeline(settings: ExperimentSettings, failed_cores: int) -> Timeline:
    """The failure schedule of one degradation cell.

    ``failed_cores`` permanent faults strike at evenly spaced cycles across
    the measurement window, retiring the highest-numbered cores first, so a
    single run sweeps from full capacity down to its final surviving-core
    count -- every event fires mid-run.
    """
    num_cores = settings.config().num_cores
    if failed_cores >= num_cores:
        raise ExperimentError(
            f"cannot fail {failed_cores} of {num_cores} cores "
            "(at least one core must survive)"
        )
    start, window = settings.warmup_cycles, settings.total_cycles
    return Timeline.of(
        *(
            CoreFailed(
                cycle=start + (index + 1) * window // (failed_cores + 1),
                core_id=num_cores - 1 - index,
            )
            for index in range(failed_cores)
        )
    )


def degradation_jobs(
    settings: ExperimentSettings, failures: Sequence[int]
) -> List[ExperimentJob]:
    """Every (workload, failed-core count, seed) degradation cell."""
    cell = settings.cell_settings()
    jobs: List[ExperimentJob] = []
    for workload in settings.workloads:
        for failed in failures:
            params: tuple = (("failed_cores", int(failed)),)
            if failed:
                timeline = degradation_timeline(settings, int(failed))
                params += (("timeline", timeline.to_json()),)
            for seed in settings.seeds:
                jobs.append(
                    ExperimentJob(
                        kind="degradation",
                        workload=workload,
                        variant=f"fail{int(failed)}",
                        seed=seed,
                        settings=cell,
                        params=params,
                    )
                )
    return jobs


def run_degradation_experiment(
    settings: Optional[ExperimentSettings] = None,
    failures: Optional[Sequence[int]] = None,
    runner: Optional[ExperimentRunner] = None,
) -> DegradationResult:
    """Sweep graceful degradation: throughput vs surviving-core count as
    permanent faults retire cores on a schedule mid-run.

    Thin view over the registered ``degradation`` spec's frame.
    """
    from repro.sim.specs import experiment

    run = experiment("degradation").execute(
        settings,
        runner=runner,
        explicit_workloads=settings is not None,
        failures=tuple(failures) if failures is not None else None,
    )
    return DegradationResult.from_frame(run.request.settings, run.frame())


# ===================================================================== #
# Dynamic scenarios: consolidation-server VM churn
# ===================================================================== #


@dataclass
class ConsolidationChurnRow:
    """One workload's consolidation-churn data."""

    workload: str
    throughput: ConfidenceInterval
    utilization: ConfidenceInterval
    transition_cycles: ConfidenceInterval
    events_applied: float


@dataclass
class ConsolidationChurnResult:
    """Consolidation churn: guest VMs arrive and depart mid-run."""

    settings: ExperimentSettings
    extra_vms: int
    rows: List[ConsolidationChurnRow] = field(default_factory=list)

    @classmethod
    def from_frame(
        cls, settings: ExperimentSettings, extra_vms: int, frame: ResultFrame
    ) -> "ConsolidationChurnResult":
        """Re-shape the schema-assembled frame into the legacy row view."""
        result = cls(settings=settings, extra_vms=int(extra_vms))
        for workload in frame.axis_values("workload"):
            result.rows.append(
                ConsolidationChurnRow(
                    workload=str(workload),
                    throughput=frame.value("overall_throughput", workload=workload),
                    utilization=frame.value("utilization", workload=workload),
                    transition_cycles=frame.value("transition_cycles", workload=workload),
                    events_applied=frame.value("events_applied", workload=workload),
                )
            )
        return result

    def row(self, workload: str) -> ConsolidationChurnRow:
        """Row for one workload."""
        for row in self.rows:
            if row.workload == workload:
                return row
        raise ExperimentError(f"no churn row for workload {workload!r}")

    def format_table(self) -> str:
        """Render utilisation and transition overhead under churn."""
        table = TextTable(
            [
                "workload",
                "throughput",
                "core utilization",
                "transition cycles",
                "events",
            ],
            title=(
                f"Consolidation churn: {self.extra_vms} burst VM(s) "
                "arriving/departing mid-run (MMM-TP)"
            ),
        )
        for row in self.rows:
            table.add_row(
                [
                    row.workload,
                    row.throughput.mean,
                    row.utilization.mean,
                    f"{row.transition_cycles.mean:.0f}",
                    f"{row.events_applied:.0f}",
                ]
            )
        return table.render()


def churn_timeline(settings: ExperimentSettings, extra_vms: int) -> Timeline:
    """The arrival/departure schedule of one consolidation-churn cell.

    Burst VM ``i`` arrives at the ``(i+1)``-th and departs at the
    ``(i+3)``-th of ``extra_vms + 3`` evenly spaced points across the
    measurement window: each burst stays for two intervals, so consecutive
    bursts genuinely overlap by one interval and the machine passes through
    distinct consolidation levels (0, 1 and 2 concurrent bursts).
    """
    start, window = settings.warmup_cycles, settings.total_cycles
    points = extra_vms + 3
    events = []
    for index in range(extra_vms):
        events.append(
            VmArrived(
                cycle=start + (index + 1) * window // points,
                vm_name=f"burst{index}",
            )
        )
        events.append(
            VmDeparted(
                cycle=start + (index + 3) * window // points,
                vm_name=f"burst{index}",
            )
        )
    return Timeline.of(*events)


def churn_jobs(settings: ExperimentSettings, extra_vms: int) -> List[ExperimentJob]:
    """Every (workload, seed) consolidation-churn cell."""
    cell = settings.cell_settings()
    timeline = churn_timeline(settings, extra_vms)
    params = (
        ("extra_vms", int(extra_vms)),
        ("timeline", timeline.to_json()),
    )
    return [
        ExperimentJob(
            kind="churn",
            workload=workload,
            variant=f"vms{int(extra_vms)}",
            seed=seed,
            settings=cell,
            params=params,
        )
        for workload in settings.workloads
        for seed in settings.seeds
    ]


def run_consolidation_churn_experiment(
    settings: Optional[ExperimentSettings] = None,
    extra_vms: Optional[int] = None,
    runner: Optional[ExperimentRunner] = None,
) -> ConsolidationChurnResult:
    """Sweep consolidation churn: utilisation and transition overhead while
    guest VMs arrive at and depart from the consolidated server mid-run.

    Thin view over the registered ``consolidation-churn`` spec's frame.
    """
    from repro.sim.specs import experiment

    run = experiment("consolidation-churn").execute(
        settings,
        runner=runner,
        explicit_workloads=settings is not None,
        extra_vms=int(extra_vms) if extra_vms is not None else None,
    )
    resolved_extra = int(
        run.request.option("extra_vms", run.request.settings.churn_extra_vms)
    )
    return ConsolidationChurnResult.from_frame(
        run.request.settings, resolved_extra, run.frame()
    )


# ===================================================================== #
# Sections 2.1 / 3.4: fault-injection coverage (cell-shaped campaign)
# ===================================================================== #

#: Seeds the fault-campaign entry points sweep by default.  Campaign trials
#: are cheap, cached and embarrassingly parallel, so a ten-seed sweep (for
#: tight confidence intervals) is the default rather than the exception --
#: matching the default :attr:`ExperimentSettings.seeds` sweep.
FAULT_DEFAULT_SEEDS = tuple(range(10))

#: Title shared by every rendering of the coverage comparison (the frame
#: view of the ``faults`` spec and
#: :func:`repro.sim.reporting.format_coverage_reports`).
FAULT_COVERAGE_TITLE = (
    "Fault-injection coverage "
    "(fraction of faults from which reliable state was protected)"
)


@dataclass
class FaultCoverageRow:
    """One campaign configuration's coverage, aggregated over the seed sweep."""

    configuration: str
    #: Every trial of every seed, merged in enumeration order.
    report: CoverageReport
    #: Coverage fraction achieved by each seed's share of the campaign.
    coverage_by_seed: Dict[int, float]

    @property
    def coverage_interval(self) -> ConfidenceInterval:
        """95% confidence interval of the coverage across seeds."""
        return confidence_interval_95(self.coverage_by_seed.values())

    @property
    def coverage(self) -> float:
        """Fraction of faults from which reliable state was protected."""
        return self.report.coverage

    @property
    def silent_corruption_rate(self) -> float:
        """Fraction of faults that silently corrupted reliable state."""
        return self.report.silent_corruption_rate


@dataclass
class FaultCoverageResult:
    """The paper's protection comparison (Sections 2.1 and 3.4).

    Unlike the pure frame views above, this result keeps the full per-trial
    records (the merged :class:`CoverageReport` per configuration), which
    the campaign analyses and tests need; the registered ``faults`` spec's
    frame carries only the aggregate coverage columns.
    """

    trials_per_site: int
    seeds: Sequence[int]
    fault_rate: float = 1.0
    rows: List[FaultCoverageRow] = field(default_factory=list)

    def row(self, configuration: str) -> FaultCoverageRow:
        """Row for one campaign configuration."""
        for row in self.rows:
            if row.configuration == configuration:
                return row
        raise ExperimentError(f"no fault-coverage row for configuration {configuration!r}")

    def reports(self) -> List[CoverageReport]:
        """The merged per-configuration coverage reports."""
        return [row.report for row in self.rows]

    def format_table(self) -> str:
        """Render the coverage comparison."""
        table = TextTable(
            ["configuration", "trials", "coverage", "95% ci", "silent corruption rate"],
            title=FAULT_COVERAGE_TITLE,
        )
        for row in self.rows:
            interval = row.coverage_interval
            table.add_row(
                [
                    row.configuration,
                    row.report.total,
                    row.coverage,
                    f"±{interval.half_width:.3f}",
                    row.silent_corruption_rate,
                ]
            )
        return table.render()


def assemble_fault_coverage(
    jobs: Sequence[ExperimentJob],
    results: JobResults,
    trials_per_site: int,
    seeds: Sequence[int],
    fault_rate: float,
) -> FaultCoverageResult:
    """Fold raw campaign cells into the record-keeping legacy result."""
    merged, per_seed = assemble_campaign_reports(jobs, results)
    result = FaultCoverageResult(
        trials_per_site=trials_per_site, seeds=tuple(seeds), fault_rate=fault_rate
    )
    for configuration, report in merged.items():
        result.rows.append(
            FaultCoverageRow(
                configuration=configuration,
                report=report,
                coverage_by_seed={
                    seed: per_seed[(configuration, seed)].coverage for seed in seeds
                },
            )
        )
    return result


def run_fault_coverage_experiment(
    trials_per_site: int = 50,
    configurations: Sequence[CampaignConfiguration] = DEFAULT_CONFIGURATIONS,
    seeds: Sequence[int] = FAULT_DEFAULT_SEEDS,
    fault_rate: float = 1.0,
    config: Optional[SystemConfig] = None,
    runner: Optional[ExperimentRunner] = None,
) -> FaultCoverageResult:
    """Reproduce the protection comparison of Sections 2.1 and 3.4.

    The campaign runs through the experiment engine: every (configuration,
    fault-site, seed, trials-chunk) cell is an independent job, so a
    multi-worker runner fans the trials out and a warm cache re-renders the
    comparison without injecting a single fault.

    Thin wrapper over the registered ``faults`` spec; keeps the full trial
    records (the spec's own frame carries the aggregate columns only).
    """
    from repro.sim.specs import experiment

    settings = ExperimentSettings().with_seeds(tuple(dict.fromkeys(seeds)))
    run = experiment("faults").execute(
        settings,
        runner=runner,
        trials=trials_per_site,
        configurations=tuple(configurations),
        fault_rate=fault_rate,
        config=config,
    )
    return assemble_fault_coverage(
        run.jobs, run.results, trials_per_site, run.request.settings.seeds, fault_rate
    )


@dataclass
class FaultRateSweepResult:
    """Coverage as a function of the fault-rate scale (the fault-space sweep)."""

    trials_per_site: int
    seeds: Sequence[int]
    fault_rates: Sequence[float]
    #: One full coverage result per swept fault rate.
    by_rate: Dict[float, FaultCoverageResult] = field(default_factory=dict)

    def format_table(self) -> str:
        """Render silent-corruption rates across the swept fault space."""
        table = TextTable(
            ["configuration", *[f"rate {rate:g}" for rate in self.fault_rates]],
            title=(
                "Fault-space sweep: silent corruption rate vs fault-rate scale "
                f"({self.trials_per_site} trials/site, {len(tuple(self.seeds))} seeds)"
            ),
        )
        configurations = [row.configuration for row in self.by_rate[self.fault_rates[0]].rows]
        for configuration in configurations:
            table.add_row(
                [
                    configuration,
                    *[
                        self.by_rate[rate].row(configuration).silent_corruption_rate
                        for rate in self.fault_rates
                    ],
                ]
            )
        return table.render()


def run_fault_rate_sweep(
    fault_rates: Sequence[float] = (0.25, 0.5, 1.0),
    trials_per_site: int = 50,
    configurations: Sequence[CampaignConfiguration] = SWEEP_CONFIGURATIONS,
    seeds: Sequence[int] = FAULT_DEFAULT_SEEDS,
    config: Optional[SystemConfig] = None,
    runner: Optional[ExperimentRunner] = None,
) -> FaultRateSweepResult:
    """Sweep the fault space: coverage per configuration across fault rates.

    All (rate, configuration, site, seed, chunk) cells are enumerated into
    *one* batch, so a parallel runner overlaps the whole sweep and cached
    cells are shared with any other campaign run at the same rate.

    Thin wrapper over the registered ``faults`` spec (its ``sweep_rates``
    option is what turns the campaign into the sweep).
    """
    if not fault_rates:
        raise ExperimentError("a fault-rate sweep needs at least one rate")
    from repro.sim.specs import experiment

    settings = ExperimentSettings().with_seeds(tuple(dict.fromkeys(seeds)))
    run = experiment("faults").execute(
        settings,
        runner=runner,
        trials=trials_per_site,
        configurations=tuple(configurations),
        sweep_rates=tuple(fault_rates),
        config=config,
    )
    resolved_seeds = run.request.settings.seeds
    by_rate: Dict[float, FaultCoverageResult] = {}
    for rate in fault_rates:
        rate_jobs = [job for job in run.jobs if job.param("fault_rate") == float(rate)]
        by_rate[rate] = assemble_fault_coverage(
            rate_jobs, run.results, trials_per_site, resolved_seeds, float(rate)
        )
    return FaultRateSweepResult(
        trials_per_site=trials_per_site,
        seeds=resolved_seeds,
        fault_rates=tuple(fault_rates),
        by_rate=by_rate,
    )


# ===================================================================== #
# Everything at once
# ===================================================================== #


@dataclass
class AllExperimentsResult:
    """Every experiment's result frame, produced from one job batch."""

    settings: ExperimentSettings
    #: One schema-assembled frame per registered spec, in registry
    #: (= presentation) order.
    frames: Dict[str, ResultFrame] = field(default_factory=dict)
    #: Results of any schema-less (user-registered) specs, keyed by spec
    #: name -- a custom experiment registered in ``EXPERIMENTS`` rides the
    #: same batch and lands here.
    extras: Dict[str, object] = field(default_factory=dict)
    #: Raw per-cell metrics keyed by cache key -- the canonical, fully
    #: serializable record of the batch (used by the determinism tests to
    #: compare serial and parallel runs byte for byte).
    job_metrics: Dict[str, Metrics] = field(default_factory=dict)

    def frame(self, name: str) -> ResultFrame:
        """One spec's frame (raising when it was skipped)."""
        try:
            return self.frames[name]
        except KeyError:
            raise ExperimentError(
                f"experiment {name!r} was not part of this run"
            ) from None

    # Legacy dataclass views over the frames, for callers that prefer the
    # familiar per-row attribute access.  ``None`` when the experiment was
    # skipped in this run.

    @property
    def figure5(self) -> Optional[DmrOverheadResult]:
        frame = self.frames.get("figure5")
        return DmrOverheadResult.from_frame(self.settings, frame) if frame else None

    @property
    def figure6(self) -> Optional[MixedModeResult]:
        frame = self.frames.get("figure6")
        return MixedModeResult.from_frame(self.settings, frame) if frame else None

    @property
    def pab(self) -> Optional[PabLatencyResult]:
        frame = self.frames.get("pab")
        return PabLatencyResult.from_frame(self.settings, frame) if frame else None

    @property
    def table1(self) -> Optional[SwitchOverheadResult]:
        frame = self.frames.get("table1")
        return SwitchOverheadResult.from_frame(frame) if frame else None

    @property
    def table2(self) -> Optional[SwitchFrequencyResult]:
        frame = self.frames.get("table2")
        return SwitchFrequencyResult.from_frame(frame) if frame else None

    @property
    def single_os(self) -> Optional[SingleOsOverheadResult]:
        frame = self.frames.get("single-os")
        return SingleOsOverheadResult.from_frame(frame) if frame else None

    @property
    def ablation(self) -> Optional[WindowAblationResult]:
        frame = self.frames.get("ablation")
        return WindowAblationResult.from_frame(self.settings, frame) if frame else None

    @property
    def faults(self) -> Optional[ResultFrame]:
        """The fault campaign's aggregate frame (coverage per configuration)."""
        return self.frames.get("faults")

    def sections(self) -> List[str]:
        """Every reproduced table, in the paper's presentation order."""
        from repro.sim.specs import EXPERIMENTS

        parts = [
            EXPERIMENTS[name].to_table(frame) for name, frame in self.frames.items()
        ]
        parts += [
            EXPERIMENTS[name].to_table(result) for name, result in self.extras.items()
        ]
        return parts

    def render(self) -> str:
        """The full plain-text report."""
        return "\n\n".join(self.sections())

    def to_document(self) -> Dict[str, object]:
        """The canonical JSON document of this run (``run-all --json``).

        Embeds the settings so ``repro diff`` can re-run the exact same
        evaluation against the document as a baseline.
        """
        return frames_document(self.frames, settings=asdict(self.settings))


def _enumerate_spec_batch(settings: ExperimentSettings, names: Sequence[str]):
    """Resolve requests and enumerate every named spec's cells into one batch.

    The shared front half of :func:`collect_frames` and
    :func:`run_all_experiments`: request resolution and batching must stay
    identical between them, or ``repro export``/``repro diff`` would
    silently diverge from the ``run-all --json`` baselines they compare
    against.  Returns ``(requests, jobs_by_spec, batch)``.
    """
    from repro.sim.specs import experiment

    requests = {}
    jobs_by_spec: Dict[str, List[ExperimentJob]] = {}
    batch: List[ExperimentJob] = []
    for name in names:
        spec = experiment(name)
        # No per-spec options: every spec sizes itself from the settings
        # object (the faults spec, for instance, falls back to
        # ``settings.fault_trials_per_site``).
        request = spec.request(settings)
        requests[name] = request
        jobs_by_spec[name] = spec.enumerate_jobs(request)
        batch += jobs_by_spec[name]
    return requests, jobs_by_spec, batch


def collect_frames(
    settings: Optional[ExperimentSettings] = None,
    names: Optional[Sequence[str]] = None,
    runner: Optional[ExperimentRunner] = None,
) -> Dict[str, ResultFrame]:
    """Run the named specs as one batch and return their frames.

    ``names`` defaults to every registered spec with a schema.  This is the
    engine behind ``repro export`` and ``repro diff``: cells of all the
    selected specs are enumerated into a single runner batch (overlapping
    across experiments under a parallel runner) and each spec's frame is
    assembled from the shared results.
    """
    from repro.sim.specs import EXPERIMENTS, experiment

    settings = settings or ExperimentSettings()
    runner = runner or default_runner()
    if names is None:
        names = [name for name, spec in EXPERIMENTS.items() if spec.schema is not None]
    for name in names:
        if experiment(name).schema is None:
            raise ExperimentError(
                f"experiment {name!r} declares no MetricSchema and cannot be framed"
            )

    with runner.stats.phase("enumerate"):
        requests, jobs_by_spec, batch = _enumerate_spec_batch(settings, names)
    results = runner.run_jobs(batch)
    with runner.stats.phase("assemble"):
        return {
            name: experiment(name).assemble_frame(requests[name], jobs_by_spec[name], results)
            for name in requests
        }


def run_all_experiments(
    settings: Optional[ExperimentSettings] = None,
    runner: Optional[ExperimentRunner] = None,
    include_switching: bool = True,
    include_ablation: bool = True,
    include_faults: bool = True,
) -> AllExperimentsResult:
    """Run the whole evaluation -- every registered spec -- as one job batch.

    The experiment list comes from the ``EXPERIMENTS`` registry of
    :mod:`repro.sim.specs`: every spec's cells (simulation cells and
    fault-campaign cells alike, plus any user-registered spec's) are
    enumerated up front and handed to the runner in a single call, so a
    multi-worker runner overlaps cells *across* experiments (not just
    within one) and a warm cache re-run executes nothing at all.  Each
    spec's results land as one :class:`ResultFrame` (schema-less specs
    fall back to their ``assemble`` hook and land in ``extras``).
    """
    from repro.sim.specs import EXPERIMENTS

    settings = settings or ExperimentSettings()
    runner = runner or default_runner()
    included = {
        "switching": include_switching,
        "ablation": include_ablation,
        "faults": include_faults,
    }
    names = [
        name
        for name, spec in EXPERIMENTS.items()
        if spec.run_all_group is None or included.get(spec.run_all_group, True)
    ]

    with runner.stats.phase("enumerate"):
        requests, jobs_by_spec, batch = _enumerate_spec_batch(settings, names)
    results = runner.run_jobs(batch)

    frames: Dict[str, ResultFrame] = {}
    extras: Dict[str, object] = {}
    with runner.stats.phase("assemble"):
        for name, request in requests.items():
            spec = EXPERIMENTS[name]
            if spec.schema is not None:
                frames[name] = spec.assemble_frame(request, jobs_by_spec[name], results)
            else:
                extras[name] = spec.assemble(request, jobs_by_spec[name], results)

    return AllExperimentsResult(
        settings=settings,
        frames=frames,
        extras=extras,
        job_metrics={job.cache_key(): dict(results[job]) for job in batch},
    )
