"""Experiment cell enumerators and the whole-evaluation batch.

Every table and figure of the paper's evaluation (Section 5) is a registered
:class:`~repro.sim.specs.ExperimentSpec`; running one returns a schema-typed
:class:`~repro.sim.frames.ResultFrame`, the one result type of the
reproduction (read cells with ``frame.value``/``frame.mean_of``, render
with ``frame.to_table()``):

======================  =====================================================
Paper artefact          Spec (``EXPERIMENTS[name].run(settings)``)
======================  =====================================================
Figure 5(a)/(b)         ``figure5``
Figure 6(a)/(b)         ``figure6``
Section 5.2 (PAB)       ``pab``
Table 1                 ``table1``
Table 2                 ``table2``
Section 5.3 bottom line ``single-os``
Window/TSO ablation     ``ablation``
Sections 2.1/3.4 faults ``faults`` (``sweep_rates=`` for the fault-space sweep)
Everything at once      :func:`run_all_experiments`
======================  =====================================================

This module keeps the domain pieces the specs are built from -- the job
enumerators and the timeline builders of the dynamic scenarios -- plus
:func:`collect_frames` and :func:`run_all_experiments`, which enumerate
several specs' cells into one runner batch and assemble one frame per spec.

All experiments share :class:`ExperimentSettings` (see
:mod:`repro.sim.settings`), which holds the scaled-down run lengths and the
capacity/footprint scale factor so that the whole evaluation completes on a
laptop while preserving the relative behaviour the paper reports.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.config.presets import evaluation_system_config, paper_system_config
from repro.config.system import PabLookupMode, SystemConfig
from repro.errors import ExperimentError
from repro.faults.cells import fault_campaign_jobs
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
    "collect_frames",
    "run_all_experiments",
]


# ===================================================================== #
# Figure 5, Figure 6 and the PAB study: per-seed simulation cells
# ===================================================================== #


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


# ===================================================================== #
# Tables 1 and 2: single-seed measurement cells
# ===================================================================== #


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


# ===================================================================== #
# Ablation: instruction window size and consistency model
# ===================================================================== #


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


# ===================================================================== #
# Dynamic scenarios: graceful degradation under accumulating core failures
# ===================================================================== #


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


# ===================================================================== #
# Dynamic scenarios: consolidation-server VM churn
# ===================================================================== #


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

    def render(self) -> str:
        """The full plain-text report: every frame's tables, in order."""
        return "\n\n".join(frame.to_table() for frame in self.frames.values())

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


def _run_spec_batch(
    settings: ExperimentSettings, names: Sequence[str], runner: ExperimentRunner
):
    """Run the named specs' cells as one batch and assemble one frame each.

    Returns ``(frames, batch, results)``: the frames in ``names`` order plus
    the raw batch, for callers that keep the per-cell record.
    """
    from repro.sim.specs import experiment

    with runner.stats.phase("enumerate"):
        requests, jobs_by_spec, batch = _enumerate_spec_batch(settings, names)
    results = runner.run_jobs(batch)
    with runner.stats.phase("assemble"):
        frames = {
            name: experiment(name).assemble_frame(request, jobs_by_spec[name], results)
            for name, request in requests.items()
        }
    return frames, batch, results


def collect_frames(
    settings: Optional[ExperimentSettings] = None,
    names: Optional[Sequence[str]] = None,
    runner: Optional[ExperimentRunner] = None,
) -> Dict[str, ResultFrame]:
    """Run the named specs as one batch and return their frames.

    ``names`` defaults to every registered spec.  This is the engine behind
    ``repro export`` and ``repro diff``: cells of all the selected specs are
    enumerated into a single runner batch (overlapping across experiments
    under a parallel runner) and each spec's frame is assembled from the
    shared results.
    """
    from repro.sim.specs import EXPERIMENTS

    if names is None:
        names = list(EXPERIMENTS)
    frames, _, _ = _run_spec_batch(
        settings or ExperimentSettings(), names, runner or default_runner()
    )
    return frames


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
    spec's results land as one :class:`ResultFrame`.
    """
    from repro.sim.specs import EXPERIMENTS

    settings = settings or ExperimentSettings()
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
    frames, batch, results = _run_spec_batch(
        settings, names, runner or default_runner()
    )
    return AllExperimentsResult(
        settings=settings,
        frames=frames,
        job_metrics={job.cache_key(): dict(results[job]) for job in batch},
    )
