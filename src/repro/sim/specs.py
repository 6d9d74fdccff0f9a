"""Declarative experiment specs and the central ``EXPERIMENTS`` registry.

Every evaluation of the reproduction -- each paper figure/table, the
dynamic scenarios, the fleet, the fuzz campaign and the fault-injection
campaigns -- is described by one :class:`ExperimentSpec`: a plain-value
object naming the experiment, the :class:`ParameterGrid` of axes it sweeps
(workload x configuration x seed, ...), how its cells are enumerated as
:class:`~repro.sim.jobs.ExperimentJob` values, and the (required)
:class:`~repro.sim.frames.MetricSchema` declaring its key axes and metric
columns.  Running a spec returns a typed
:class:`~repro.sim.frames.ResultFrame`, the one result type: the generic
assembler of :mod:`repro.sim.frames` folds the runner's ``{job: metrics}``
output into the frame, aggregating over seeds in one place, and
``to_table`` / ``to_json`` / ``to_csv`` are *generated* from the schema.

Specs are registered in the module-level :data:`EXPERIMENTS` registry, which
is the single source of truth the rest of the system iterates:

* ``EXPERIMENTS[name].run(settings)`` returns the frame, and
  ``EXPERIMENTS[name].execute(settings)`` additionally keeps the raw
  ``{job: metrics}`` record (the fault campaign's per-trial reports fold
  from it via :func:`repro.faults.cells.assemble_campaign_reports`);
* ``run_all_experiments`` enumerates every registered spec's cells into one
  job batch and returns one frame per spec;
* the CLI generates one subcommand per spec -- flags, help text and
  defaults all come from the spec's metadata (:class:`SpecOption`), so a
  new experiment shows up in ``repro <name>``, ``repro list``, ``repro
  export`` and ``repro diff`` without touching :mod:`repro.cli`.

Adding a new scenario is therefore a ~30-line spec: declare a grid, an
enumerator mapping grid points to jobs (reusing a registered job kind, or
registering a new one via :func:`repro.sim.jobs.register_job_kind`), a
:class:`MetricSchema`, and call :func:`register_experiment`.  See
``examples/custom_experiment.py`` for a worked example.  A spec without a
schema is rejected when it is constructed.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.config.system import PabLookupMode
from repro.errors import ExperimentError
from repro.faults.campaign import (
    DEFAULT_CONFIGURATIONS,
    SWEEP_CONFIGURATIONS,
    TRIAL_SITES,
)
from repro.faults.cells import (
    DEFAULT_TRIALS_PER_CELL,
    assemble_campaign_reports,
    fault_campaign_jobs,
)
from repro.sim.experiments import (
    ABLATION_VARIANTS,
    FIGURE5_CONFIGS,
    FIGURE6_CONFIGS,
    ExperimentSettings,
    churn_jobs,
    degradation_jobs,
    figure5_jobs,
    figure6_jobs,
    pab_jobs,
    switch_frequency_jobs,
    switch_overhead_jobs,
    window_ablation_jobs,
)
from repro.sim.fleet.cells import fleet_jobs, fleet_samples, fleet_topology
from repro.sim.fleet.traffic import SCENARIO_NAMES
from repro.sim.frames import FrameView, MetricColumn, MetricSchema, ResultFrame
from repro.sim.jobs import ExperimentJob
from repro.sim.runner import ExperimentRunner, default_runner
from repro.sim.store import Metrics

__all__ = [
    "EXPERIMENTS",
    "ExperimentSpec",
    "ParameterGrid",
    "SpecOption",
    "SpecRequest",
    "SpecRun",
    "experiment",
    "experiment_names",
    "register_experiment",
    "jsonify",
    "parse_count_list",
    "parse_nonnegative_int",
    "parse_positive_int",
    "parse_rate_list",
    "parse_seed_list",
]

JobResults = Mapping[ExperimentJob, Metrics]

#: One raw frame sample: a key tuple (schema key order) plus a mapping of
#: metric samples contributed at that coordinate.
FrameSample = Tuple[Tuple[object, ...], Mapping[str, object]]


# ===================================================================== #
# Parameter grids
# ===================================================================== #


@dataclass(frozen=True)
class ParameterGrid:
    """The cartesian axes one experiment sweeps, in nesting order.

    Purely descriptive -- the grid names the cell space (its size equals the
    number of enumerated jobs), which is what ``repro list`` prints and what
    :meth:`ExperimentSpec.to_json` records alongside the results.
    """

    #: Ordered (axis name, axis values) pairs; the last axis varies fastest.
    axes: Tuple[Tuple[str, Tuple[object, ...]], ...]

    @classmethod
    def of(cls, *axes: Tuple[str, Sequence[object]]) -> "ParameterGrid":
        """Build a grid from (name, values) pairs, normalising to tuples."""
        return cls(axes=tuple((name, tuple(values)) for name, values in axes))

    def names(self) -> Tuple[str, ...]:
        """The axis names, outermost first."""
        return tuple(name for name, _ in self.axes)

    def axis(self, name: str) -> Tuple[object, ...]:
        """The values of one axis."""
        for axis_name, values in self.axes:
            if axis_name == name:
                return values
        raise ExperimentError(f"grid has no axis named {name!r}")

    def size(self) -> int:
        """Number of grid points (cells)."""
        return math.prod(len(values) for _, values in self.axes) if self.axes else 0

    def points(self) -> Iterator[Dict[str, object]]:
        """Every grid point as an ``{axis: value}`` dict, row-major."""

        def expand(index: int, point: Dict[str, object]) -> Iterator[Dict[str, object]]:
            if index == len(self.axes):
                yield dict(point)
                return
            name, values = self.axes[index]
            for value in values:
                point[name] = value
                yield from expand(index + 1, point)

        yield from expand(0, {})

    def describe(self) -> str:
        """Compact human-readable shape, e.g. ``workload(6) x seed(10)``."""
        if not self.axes:
            return "(empty)"
        return " x ".join(f"{name}({len(values)})" for name, values in self.axes)


# ===================================================================== #
# Option metadata (drives the auto-generated CLI flags)
# ===================================================================== #


def parse_positive_int(value: str) -> int:
    """Argparse type for counts that must be at least 1."""
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return number


def parse_nonnegative_int(value: str) -> int:
    """Argparse type for counts where 0 is meaningful (e.g. no-churn)."""
    number = int(value)
    if number < 0:
        raise argparse.ArgumentTypeError("must be non-negative")
    return number


def parse_seed_list(value: str) -> Tuple[int, ...]:
    """``--seeds`` accepts a comma list ('0,1,2') or a count N (seeds 0..N-1)."""
    try:
        if "," in value:
            # dict.fromkeys: drop duplicate seeds while keeping their order
            # (a duplicated seed would double-count its cells in a sweep).
            seeds = tuple(
                dict.fromkeys(int(part) for part in value.split(",") if part.strip())
            )
        else:
            seeds = tuple(range(int(value)))
    except ValueError:
        raise argparse.ArgumentTypeError(
            "expected a comma-separated seed list like '0,1,2' or a count like '5'"
        ) from None
    if not seeds:
        raise argparse.ArgumentTypeError("needs at least one seed")
    return seeds


def parse_count_list(value: str) -> Tuple[int, ...]:
    """A comma list of non-negative integers (e.g. ``--failures 0,2,4``)."""
    try:
        counts = tuple(
            dict.fromkeys(int(part) for part in value.split(",") if part.strip())
        )
    except ValueError:
        raise argparse.ArgumentTypeError(
            "expected a comma-separated list of counts like '0,2,4'"
        ) from None
    if not counts or any(count < 0 for count in counts):
        raise argparse.ArgumentTypeError("counts must be non-negative integers")
    return counts


def parse_rate_list(value: str) -> Tuple[float, ...]:
    """``--sweep-rates`` accepts a comma list of fault-rate scales in (0, 1]."""
    try:
        rates = tuple(float(part) for part in value.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            "expected a comma-separated list of rates like '0.25,0.5,1.0'"
        ) from None
    # `not (0 < rate <= 1)` rather than `rate <= 0 or rate > 1`: the former
    # also rejects NaN, for which every comparison is False.
    if not rates or any(not (0.0 < rate <= 1.0) for rate in rates):
        raise argparse.ArgumentTypeError("rates must lie in (0, 1]")
    return rates


@dataclass(frozen=True)
class SpecOption:
    """One experiment-specific CLI flag, declared as spec metadata.

    The CLI materialises every option as an ``argparse`` argument; the
    parsed values reach the spec through :attr:`SpecRequest.options`.
    """

    #: Option name and ``argparse`` destination (underscored).
    name: str
    #: Command-line flag (dashed), e.g. ``--sweep-rates``.
    flag: str
    help: str = ""
    default: object = None
    #: Parser for the flag's string value; ignored for boolean flags.
    parse: Optional[Callable[[str], object]] = None
    metavar: Optional[str] = None
    #: ``True`` for a ``store_true`` switch.
    is_flag: bool = False


# ===================================================================== #
# Requests and specs
# ===================================================================== #


@dataclass(frozen=True)
class SpecRequest:
    """One resolved ask of a spec: settings plus experiment-specific options.

    Built by :meth:`ExperimentSpec.request` (which applies the spec's
    workload limit and single-seed policy), and passed verbatim to the
    spec's ``grid`` / ``enumerate_jobs`` / ``schema`` hooks.
    """

    settings: ExperimentSettings
    options: Mapping[str, object] = field(default_factory=dict)

    def option(self, name: str, default: object = None) -> object:
        """Read one option, falling back to ``default`` when unset/None."""
        value = self.options.get(name)
        return default if value is None else value


@dataclass(frozen=True)
class ExperimentSpec:
    """A declarative, re-runnable description of one experiment.

    The hooks receive a resolved :class:`SpecRequest`; everything else --
    running through a :class:`~repro.sim.runner.ExperimentRunner`, generic
    frame assembly, schema-generated table / JSON / CSV rendering -- is
    provided by the spec machinery.  ``schema`` is required: constructing
    a spec without one raises :class:`~repro.errors.ExperimentError`.
    """

    #: Registry key, CLI subcommand and JSON ``experiment`` field.
    name: str
    #: One-line summary (the CLI subcommand's help text).
    title: str
    #: Longer prose for ``repro list``/docs; defaults to the title.
    description: str = ""
    #: Spec family (``simulation``, ``measurement``, ``faults``) -- how the
    #: cells execute, used for grouping in ``repro list`` and the tests.
    family: str = "simulation"
    #: The swept axes, given the resolved request.
    grid: Callable[[SpecRequest], ParameterGrid] = lambda request: ParameterGrid(())
    #: The request's cells as picklable engine jobs.
    enumerate_jobs: Callable[[SpecRequest], List[ExperimentJob]] = (
        lambda request: []
    )
    #: The declared result shape: key axes plus typed metric columns.
    #: Running the spec returns a :class:`ResultFrame` assembled from it by
    #: the generic fold of :mod:`repro.sim.frames`.  Required (the default
    #: only lets the field follow the defaulted ones; ``None`` is rejected).
    schema: Optional[Callable[[SpecRequest], MetricSchema]] = None
    #: Optional override of the raw samples fed to the frame assembler;
    #: the default maps each job's key coordinates straight off the job and
    #: feeds its whole metrics dict.  Needed when samples must be computed
    #: *across* cells first (the fault campaign derives per-seed coverage
    #: from many trial-chunk cells).
    cell_samples: Optional[
        Callable[[SpecRequest, Sequence[ExperimentJob], JobResults], Iterable[FrameSample]]
    ] = None
    #: Experiment-specific CLI flags.
    options: Tuple[SpecOption, ...] = ()
    #: ``False`` for single-seed measurements: the request keeps only the
    #: first seed, and the CLI announces dropped seeds instead of silently
    #: ignoring them.
    multi_seed: bool = True
    #: When set, a request that did not explicitly choose workloads is
    #: limited to the first N (the ablation runs two by default).
    workload_limit: Optional[int] = None
    #: Whether the experiment sweeps the paper workloads at all (the fault
    #: campaigns sweep fault sites instead; the CLI then offers no
    #: ``--workloads``/``--quick`` flags).
    takes_workloads: bool = True
    #: ``run_all_experiments`` skip group (``switching``, ``ablation``,
    #: ``faults``) or ``None`` for the always-on core experiments.
    run_all_group: Optional[str] = None

    def __post_init__(self) -> None:
        if self.schema is None:
            raise ExperimentError(
                f"experiment {self.name!r} declares no MetricSchema; every "
                "spec needs one (its result is a ResultFrame)"
            )

    # ------------------------------------------------------------------ #
    # Request resolution and execution
    # ------------------------------------------------------------------ #

    def request(
        self,
        settings: Optional[ExperimentSettings] = None,
        *,
        explicit_workloads: bool = False,
        **options: object,
    ) -> SpecRequest:
        """Resolve settings + options into the request the hooks consume."""
        settings = settings or ExperimentSettings()
        if (
            self.workload_limit is not None
            and not explicit_workloads
            and len(settings.workloads) > self.workload_limit
        ):
            settings = settings.with_workloads(
                settings.workloads[: self.workload_limit]
            )
        if not self.multi_seed and len(settings.seeds) > 1:
            settings = settings.with_seeds(settings.seeds[:1])
        return SpecRequest(settings=settings, options=options)

    def execute(
        self,
        settings: Optional[ExperimentSettings] = None,
        runner: Optional[ExperimentRunner] = None,
        request: Optional[SpecRequest] = None,
        **options: object,
    ) -> "SpecRun":
        """Enumerate and execute this experiment, keeping the raw results.

        Either pass a pre-resolved ``request`` or let ``settings`` and
        keyword options be resolved via :meth:`request`.  The returned
        :class:`SpecRun` exposes the raw ``{job: metrics}`` mapping as well
        as the assembled :meth:`~SpecRun.frame`.
        """
        if request is None:
            request = self.request(settings, **options)
        runner = runner or default_runner()
        with runner.stats.phase("enumerate"):
            jobs = self.enumerate_jobs(request)
        results = runner.run_jobs(jobs)
        return SpecRun(
            spec=self, request=request, jobs=jobs, results=results, runner=runner
        )

    def run(
        self,
        settings: Optional[ExperimentSettings] = None,
        runner: Optional[ExperimentRunner] = None,
        request: Optional[SpecRequest] = None,
        **options: object,
    ) -> ResultFrame:
        """Run this experiment and return its assembled :class:`ResultFrame`."""
        return self.execute(settings, runner=runner, request=request, **options).frame()

    # ------------------------------------------------------------------ #
    # Frame assembly (generic, schema-driven)
    # ------------------------------------------------------------------ #

    def metric_schema(self, request: SpecRequest) -> MetricSchema:
        """The resolved schema of one request."""
        return self.schema(request)

    def samples(
        self,
        request: SpecRequest,
        jobs: Sequence[ExperimentJob],
        results: JobResults,
    ) -> Iterable[FrameSample]:
        """The raw ``(key, values)`` samples fed to the frame assembler."""
        if self.cell_samples is not None:
            return self.cell_samples(request, jobs, results)
        schema = self.metric_schema(request)
        return (
            (
                tuple(_job_axis_value(job, axis) for axis in schema.keys),
                results[job],
            )
            for job in jobs
        )

    def assemble_frame(
        self,
        request: SpecRequest,
        jobs: Sequence[ExperimentJob],
        results: JobResults,
    ) -> ResultFrame:
        """Fold the runner's output into this spec's :class:`ResultFrame`."""
        return ResultFrame.assemble(
            self.metric_schema(request),
            self.samples(request, jobs, results),
            name=self.name,
            title=self.title,
        )

    # ------------------------------------------------------------------ #
    # Uniform JSON document (tables and CSV come from the frame itself)
    # ------------------------------------------------------------------ #

    def to_json(self, frame: ResultFrame) -> Dict[str, object]:
        """The spec's uniform JSON document around one of its frames."""
        return {
            "experiment": self.name,
            "title": self.title,
            "family": self.family,
            "result": frame.to_json(),
        }


@dataclass
class SpecRun:
    """One executed spec request: the raw results plus the assembled frame."""

    spec: ExperimentSpec
    request: SpecRequest
    jobs: List[ExperimentJob]
    results: JobResults
    #: The runner that executed the request; set so lazy frame assembly can
    #: charge its time to the runner's ``assemble`` phase.
    runner: Optional[ExperimentRunner] = None
    _frame: Optional[ResultFrame] = None

    def frame(self) -> ResultFrame:
        """The schema-assembled frame (computed once per run)."""
        if self._frame is None:
            if self.runner is not None:
                with self.runner.stats.phase("assemble"):
                    self._frame = self.spec.assemble_frame(
                        self.request, self.jobs, self.results
                    )
            else:
                self._frame = self.spec.assemble_frame(
                    self.request, self.jobs, self.results
                )
        return self._frame


def _job_axis_value(job: ExperimentJob, axis: str) -> object:
    """Default mapping from a schema key axis to a job's coordinate.

    ``workload`` and ``seed`` are job fields; any other axis is looked up
    in the job's ``params`` payload and falls back to the ``variant``
    label (the configuration axis of the simulation families).
    """
    if axis == "workload":
        return job.workload
    if axis == "seed":
        return job.seed
    value = job.param(axis)
    if value is not None:
        return value
    return job.variant


def jsonify(value: object) -> object:
    """Recursively convert grid values and options into JSON-serializable values.

    Dataclasses become field dicts (honouring a ``to_dict`` method when one
    exists), enums their names, mappings get string keys; anything else
    unknown falls back to ``str``.
    """
    to_dict = getattr(value, "to_dict", None)
    if callable(to_dict) and not isinstance(value, type):
        return jsonify(to_dict())
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: jsonify(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, Enum):
        return value.name
    if isinstance(value, Mapping):
        return {str(key): jsonify(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [jsonify(item) for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


# ===================================================================== #
# The registry
# ===================================================================== #

#: Every registered experiment spec, in registration (= presentation) order.
EXPERIMENTS: Dict[str, ExperimentSpec] = {}


def register_experiment(spec: ExperimentSpec, *, replace: bool = False) -> ExperimentSpec:
    """Add a spec to :data:`EXPERIMENTS` (rejecting silent name collisions)."""
    if spec.name in EXPERIMENTS and not replace:
        raise ExperimentError(f"experiment {spec.name!r} is already registered")
    EXPERIMENTS[spec.name] = spec
    return spec


def experiment(name: str) -> ExperimentSpec:
    """Look up one registered spec by name."""
    try:
        return EXPERIMENTS[name]
    except KeyError:
        known = ", ".join(EXPERIMENTS) or "none"
        raise ExperimentError(
            f"unknown experiment {name!r} (registered: {known})"
        ) from None


def experiment_names() -> Tuple[str, ...]:
    """The registered experiment names, in presentation order."""
    return tuple(EXPERIMENTS)


# ===================================================================== #
# The reproduction's specs
# ===================================================================== #


def _seed_grid(request: SpecRequest, configurations: Sequence[object]) -> ParameterGrid:
    return ParameterGrid.of(
        ("workload", request.settings.workloads),
        ("configuration", configurations),
        ("seed", request.settings.seeds),
    )


def _ipc_metric(name: str, label: str = "") -> MetricColumn:
    return MetricColumn(name, unit="instr/cycle", label=label)


_FIGURE5_SCHEMA = MetricSchema(
    keys=("workload", "configuration"),
    metrics=(
        _ipc_metric("user_ipc", "user IPC"),
        _ipc_metric("throughput"),
    ),
    views=(
        FrameView(
            title="Figure 5(a): per-thread user IPC (normalised to No DMR 2X)",
            metrics=("user_ipc",),
            pivot="configuration",
            normalize_to="no-dmr-2x",
        ),
        FrameView(
            title="Figure 5(b): overall throughput (normalised to No DMR 2X)",
            metrics=("throughput",),
            pivot="configuration",
            normalize_to="no-dmr-2x",
        ),
    ),
)


register_experiment(
    ExperimentSpec(
        name="figure5",
        title="Figure 5: DMR overhead (IPC and throughput)",
        description=(
            "Per-thread user IPC and overall throughput of No DMR 2X, "
            "No DMR and Reunion-style DMR."
        ),
        grid=lambda request: _seed_grid(request, FIGURE5_CONFIGS),
        enumerate_jobs=lambda request: figure5_jobs(request.settings),
        schema=lambda request: _FIGURE5_SCHEMA,
    )
)


_FIGURE6_SCHEMA = MetricSchema(
    keys=("workload", "configuration"),
    metrics=(
        _ipc_metric("reliable_ipc", "reliable"),
        _ipc_metric("performance_ipc", "performance"),
        _ipc_metric("reliable_throughput"),
        _ipc_metric("performance_throughput"),
        _ipc_metric("overall_throughput"),
    ),
    views=(
        FrameView(
            title="Figure 6(a): per-thread user IPC (normalised to DMR Base)",
            metrics=("reliable_ipc", "performance_ipc"),
            series_labels=("reliable", "performance"),
            series_column="vm",
            pivot="configuration",
            normalize_to="dmr-base",
        ),
        FrameView(
            title="Figure 6(b): throughput (normalised to DMR Base)",
            metrics=("performance_throughput", "overall_throughput"),
            series_labels=("performance-vm", "overall"),
            series_column="series",
            pivot="configuration",
            normalize_to="dmr-base",
        ),
    ),
)


register_experiment(
    ExperimentSpec(
        name="figure6",
        title="Figure 6: mixed-mode performance",
        description=(
            "Per-VM IPC and throughput of the consolidated server under "
            "DMR Base, MMM-IPC and MMM-TP."
        ),
        grid=lambda request: _seed_grid(
            request, request.option("configurations", FIGURE6_CONFIGS)
        ),
        enumerate_jobs=lambda request: figure6_jobs(
            request.settings, request.option("configurations", FIGURE6_CONFIGS)
        ),
        schema=lambda request: _FIGURE6_SCHEMA,
    )
)


_PAB_SCHEMA = MetricSchema(
    keys=("workload", "lookup"),
    metrics=(
        MetricColumn("performance_ipc", unit="instr/cycle", aggregate="mean"),
        MetricColumn("reliable_ipc", unit="instr/cycle", aggregate="mean"),
    ),
    views=(
        FrameView(
            title="Effect of a 2-cycle serial PAB lookup (MMM-TP, performance VM)",
            metrics=("performance_ipc", "reliable_ipc"),
            series_labels=("performance", "reliable"),
            series_column="vm",
            pivot="lookup",
        ),
    ),
)


register_experiment(
    ExperimentSpec(
        name="pab",
        title="Section 5.2: serial vs parallel PAB lookup",
        description="IPC sensitivity of the performance VM to a serialised PAB lookup.",
        grid=lambda request: ParameterGrid.of(
            ("workload", request.settings.workloads),
            ("lookup", tuple(mode.value for mode in (PabLookupMode.PARALLEL, PabLookupMode.SERIAL))),
            ("seed", request.settings.seeds),
        ),
        enumerate_jobs=lambda request: pab_jobs(request.settings),
        schema=lambda request: _PAB_SCHEMA,
    )
)


def _table1_jobs(request: SpecRequest) -> List[ExperimentJob]:
    settings = request.settings
    return switch_overhead_jobs(
        settings.workloads,
        transitions_to_measure=request.option(
            "transitions_to_measure", settings.switch_transitions
        ),
        warmup_cycles=request.option("warmup_cycles", settings.switch_warmup_cycles),
        config=request.option("config"),
        seed=settings.seeds[0],
    )


_TABLE1_SCHEMA = MetricSchema(
    keys=("workload",),
    metrics=(
        MetricColumn(
            "enter_dmr_cycles", unit="cycles", aggregate="last",
            label="Enter DMR", fmt="{:.0f}",
        ),
        MetricColumn(
            "leave_dmr_cycles", unit="cycles", aggregate="last",
            label="Leave DMR", fmt="{:.0f}",
        ),
    ),
    views=(
        FrameView(
            title="Table 1: mixed-mode switching overheads (cycles, MMM-TP)",
            metrics=("enter_dmr_cycles", "leave_dmr_cycles"),
        ),
    ),
)


register_experiment(
    ExperimentSpec(
        name="table1",
        title="Table 1: mode-switch overheads",
        description="Cycle cost of Enter-DMR and Leave-DMR on the full-size machine.",
        family="measurement",
        grid=lambda request: ParameterGrid.of(
            ("workload", request.settings.workloads)
        ),
        enumerate_jobs=_table1_jobs,
        schema=lambda request: _TABLE1_SCHEMA,
        multi_seed=False,
        run_all_group="switching",
    )
)


def _table2_jobs(request: SpecRequest) -> List[ExperimentJob]:
    settings = request.settings
    return switch_frequency_jobs(
        settings.workloads,
        phases_to_measure=request.option(
            "phases_to_measure", settings.frequency_phases
        ),
        measurement_phase_scale=request.option(
            "measurement_phase_scale", settings.frequency_phase_scale
        ),
        config=request.option("config"),
        seed=settings.seeds[0],
    )


_TABLE2_SCHEMA = MetricSchema(
    keys=("workload",),
    metrics=(
        MetricColumn(
            "user_cycles", unit="cycles", aggregate="last",
            label="User Cycles", fmt="{:.0f}",
        ),
        MetricColumn(
            "os_cycles", unit="cycles", aggregate="last",
            label="OS Cycles", fmt="{:.0f}",
        ),
    ),
    views=(
        FrameView(
            title="Table 2: cycles before switching modes (single-OS, non-DMR baseline)",
            metrics=("user_cycles", "os_cycles"),
        ),
    ),
)


register_experiment(
    ExperimentSpec(
        name="table2",
        title="Table 2: cycles between mode switches",
        description="Average user and OS phase lengths on the non-DMR baseline.",
        family="measurement",
        grid=lambda request: ParameterGrid.of(
            ("workload", request.settings.workloads)
        ),
        enumerate_jobs=_table2_jobs,
        schema=lambda request: _TABLE2_SCHEMA,
        multi_seed=False,
        run_all_group="switching",
    )
)


def _single_os_jobs(request: SpecRequest) -> List[ExperimentJob]:
    return _table1_jobs(request) + _table2_jobs(request)


def _single_os_samples(
    request: SpecRequest, jobs: Sequence[ExperimentJob], results: JobResults
) -> Iterator[FrameSample]:
    """Merge Table 1 and Table 2 cells into one row per workload.

    Each measurement kind contributes a *partial* sample; the assembler
    merges them by key and the ``overhead_percent`` column derives from the
    merged row."""
    for job in jobs:
        metrics = results[job]
        if job.kind == "table1":
            yield (job.workload,), {
                "switch_cycles": metrics["enter_dmr_cycles"] + metrics["leave_dmr_cycles"]
            }
        else:
            yield (job.workload,), {
                "round_trip_cycles": metrics["user_cycles"] + metrics["os_cycles"]
            }


def _single_os_overhead(row: Mapping[str, object]) -> float:
    switch = float(row.get("switch_cycles") or 0.0)
    total = float(row.get("round_trip_cycles") or 0.0) + switch
    return switch / total * 100.0 if total else 0.0


_SINGLE_OS_SCHEMA = MetricSchema(
    keys=("workload",),
    metrics=(
        MetricColumn(
            "switch_cycles", unit="cycles", aggregate="last",
            label="switch cycles", fmt="{:.0f}",
        ),
        MetricColumn(
            "round_trip_cycles", unit="cycles", aggregate="last",
            label="user+OS cycles", fmt="{:.0f}",
        ),
        MetricColumn(
            "overhead_percent", unit="%", aggregate="derive",
            label="overhead %", derive=_single_os_overhead,
        ),
    ),
    views=(
        FrameView(
            title="Single-OS mode-switching overhead (Table 1 + Table 2 combined)",
            metrics=("switch_cycles", "round_trip_cycles", "overhead_percent"),
        ),
    ),
)


register_experiment(
    ExperimentSpec(
        name="single-os",
        title="Section 5.3: single-OS switching overhead",
        description="Tables 1 and 2 combined into the single-OS overhead estimate.",
        family="measurement",
        grid=lambda request: ParameterGrid.of(
            ("workload", request.settings.workloads),
            ("measurement", ("table1", "table2")),
        ),
        enumerate_jobs=_single_os_jobs,
        schema=lambda request: _SINGLE_OS_SCHEMA,
        cell_samples=_single_os_samples,
        multi_seed=False,
        run_all_group="switching",
    )
)


_ABLATION_SCHEMA = MetricSchema(
    keys=("workload", "variant"),
    # Single-seed measurement: the cell's raw IPC, not a degenerate CI.
    metrics=(
        MetricColumn(
            "user_ipc", unit="instr/cycle", aggregate="last", label="user IPC"
        ),
    ),
    views=(
        FrameView(
            title="Reunion per-thread IPC vs window size / consistency (normalised)",
            metrics=("user_ipc",),
            pivot="variant",
            normalize_to="window128-sc",
        ),
    ),
)


register_experiment(
    ExperimentSpec(
        name="ablation",
        title="window-size / consistency ablation",
        description=(
            "Reunion IPC under a larger instruction window and a TSO store "
            "buffer (the Section 5.1 prior-work comparison)."
        ),
        grid=lambda request: ParameterGrid.of(
            ("workload", request.settings.workloads),
            ("variant", tuple(ABLATION_VARIANTS)),
        ),
        enumerate_jobs=lambda request: window_ablation_jobs(request.settings),
        schema=lambda request: _ABLATION_SCHEMA,
        multi_seed=False,
        workload_limit=2,
        run_all_group="ablation",
    )
)


def _degradation_failures(request: SpecRequest) -> Tuple[int, ...]:
    explicit = request.options.get("failures")
    if explicit is not None:
        return tuple(int(failed) for failed in explicit)
    return tuple(request.settings.degradation_failed_cores)


def _degradation_schema(request: SpecRequest) -> MetricSchema:
    num_cores = request.settings.config().num_cores
    return MetricSchema(
        keys=("workload", "failed_cores"),
        metrics=(
            _ipc_metric("throughput"),
            _ipc_metric("user_ipc", "user IPC"),
            MetricColumn("paused_vcpu_quanta", aggregate="mean", label="paused quanta"),
            MetricColumn("events_applied", aggregate="mean", label="events"),
        ),
        views=(
            FrameView(
                title=(
                    "Graceful degradation: overall throughput vs surviving cores "
                    "(cores fail mid-run; Reunion DMR machine)"
                ),
                metrics=("throughput",),
                pivot="failed_cores",
                pivot_header=lambda failed: f"{num_cores - int(failed)} cores",
            ),
        ),
    )


register_experiment(
    ExperimentSpec(
        name="degradation",
        title="graceful degradation: throughput vs surviving cores (timeline-driven)",
        description=(
            "Permanent faults retire cores on a mid-run schedule (CoreFailed "
            "timeline events); throughput and per-thread IPC are reported "
            "against the surviving-core count."
        ),
        grid=lambda request: ParameterGrid.of(
            ("workload", request.settings.workloads),
            ("failed_cores", _degradation_failures(request)),
            ("seed", request.settings.seeds),
        ),
        enumerate_jobs=lambda request: degradation_jobs(
            request.settings, _degradation_failures(request)
        ),
        schema=_degradation_schema,
        options=(
            SpecOption(
                name="failures",
                flag="--failures",
                parse=parse_count_list,
                metavar="N1,N2,...",
                help=(
                    "failed-core counts to sweep, e.g. '0,2,4,6' "
                    "(default: the settings' sweep)"
                ),
            ),
        ),
        workload_limit=2,
    )
)


def _churn_extra_vms(request: SpecRequest) -> int:
    # `is not None`, not truthiness: an explicit `extra_vms=0` from the
    # library wrapper is the no-churn baseline, not "use the default".
    explicit = request.options.get("extra_vms")
    if explicit is not None:
        return int(explicit)
    return int(request.settings.churn_extra_vms)


def _churn_schema(request: SpecRequest) -> MetricSchema:
    extra_vms = _churn_extra_vms(request)
    return MetricSchema(
        keys=("workload",),
        metrics=(
            _ipc_metric("overall_throughput", "throughput"),
            MetricColumn("utilization", label="core utilization"),
            MetricColumn(
                "transition_cycles", unit="cycles",
                label="transition cycles", fmt="{:.0f}",
            ),
            MetricColumn(
                "events_applied", aggregate="mean", label="events", fmt="{:.0f}",
            ),
        ),
        views=(
            FrameView(
                title=(
                    f"Consolidation churn: {extra_vms} burst VM(s) "
                    "arriving/departing mid-run (MMM-TP)"
                ),
                metrics=(
                    "overall_throughput",
                    "utilization",
                    "transition_cycles",
                    "events_applied",
                ),
            ),
        ),
    )


register_experiment(
    ExperimentSpec(
        name="consolidation-churn",
        title="consolidation churn: VMs arriving/departing mid-run (timeline-driven)",
        description=(
            "Deferred burst VMs join and leave the MMM-TP consolidated "
            "server on a VmArrived/VmDeparted timeline; reports utilisation, "
            "throughput and transition overhead under churn."
        ),
        grid=lambda request: ParameterGrid.of(
            ("workload", request.settings.workloads),
            ("seed", request.settings.seeds),
        ),
        enumerate_jobs=lambda request: churn_jobs(
            request.settings, _churn_extra_vms(request)
        ),
        schema=_churn_schema,
        options=(
            SpecOption(
                name="extra_vms",
                flag="--extra-vms",
                parse=parse_nonnegative_int,
                metavar="N",
                help=(
                    "number of burst VMs arriving/departing mid-run; 0 is "
                    "the no-churn baseline (default: the settings' churn level)"
                ),
            ),
        ),
        workload_limit=2,
    )
)


def _faults_configurations(request: SpecRequest) -> Sequence[object]:
    explicit = request.option("configurations")
    if explicit is not None:
        return explicit
    return SWEEP_CONFIGURATIONS if request.option("all_configurations") else DEFAULT_CONFIGURATIONS


def _faults_rates(request: SpecRequest) -> Tuple[float, ...]:
    sweep = request.option("sweep_rates")
    if sweep:
        return tuple(sweep)
    return (float(request.option("fault_rate", 1.0)),)


def _faults_trials(request: SpecRequest) -> int:
    """Trials per site: the explicit option, else the settings' campaign size.

    Falling back to ``settings.fault_trials_per_site`` is what lets
    ``run_all_experiments`` drive the campaign purely through the settings
    object, with no spec-specific plumbing."""
    return int(request.option("trials", request.settings.fault_trials_per_site))


def _faults_grid(request: SpecRequest) -> ParameterGrid:
    trials = _faults_trials(request)
    chunks = math.ceil(trials / int(request.option("trials_per_cell", DEFAULT_TRIALS_PER_CELL)))
    axes: List[Tuple[str, Sequence[object]]] = []
    rates = _faults_rates(request)
    if len(rates) > 1:
        axes.append(("rate", rates))
    axes += [
        ("configuration", tuple(c.name for c in _faults_configurations(request))),
        ("site", TRIAL_SITES),
        ("seed", request.settings.seeds),
        ("chunk", tuple(range(chunks))),
    ]
    return ParameterGrid.of(*axes)


def _faults_jobs(request: SpecRequest) -> List[ExperimentJob]:
    jobs: List[ExperimentJob] = []
    for rate in _faults_rates(request):
        jobs += fault_campaign_jobs(
            trials_per_site=_faults_trials(request),
            configurations=_faults_configurations(request),
            seeds=request.settings.seeds,
            fault_rate=rate,
            config=request.option("config"),
            trials_per_cell=int(
                request.option("trials_per_cell", DEFAULT_TRIALS_PER_CELL)
            ),
        )
    return jobs


def _faults_sweeping(request: SpecRequest) -> bool:
    return bool(request.option("sweep_rates"))


def _faults_schema(request: SpecRequest) -> MetricSchema:
    sweeping = _faults_sweeping(request)
    keys = ("rate", "configuration") if sweeping else ("configuration",)
    if sweeping:
        views = (
            FrameView(
                title=(
                    "Fault-space sweep: silent corruption rate vs fault-rate scale "
                    f"({_faults_trials(request)} trials/site, "
                    f"{len(tuple(request.settings.seeds))} seeds)"
                ),
                metrics=("silent_corruption_rate",),
                pivot="rate",
                pivot_header="rate {:g}",
            ),
        )
    else:
        views = (
            FrameView(
                title=(
                    "Fault-injection coverage "
                    "(fraction of faults from which reliable state was protected)"
                ),
                metrics=("trials", "coverage", "silent_corruption_rate"),
            ),
        )
    return MetricSchema(
        keys=keys,
        metrics=(
            MetricColumn("trials", dtype="int", aggregate="sum"),
            MetricColumn("coverage"),
            MetricColumn("silent_corruption_rate", label="silent corruption rate"),
        ),
        views=views,
    )


def _faults_samples(
    request: SpecRequest, jobs: Sequence[ExperimentJob], results: JobResults
) -> Iterator[FrameSample]:
    """Per-seed coverage samples, derived across each seed's trial cells.

    A campaign cell is one (configuration, site, seed, chunk) chunk of trial
    records; coverage is only meaningful per seed-share of the campaign, so
    the samples are the per-seed merged reports -- the ``mean_ci``
    aggregation over them is exactly the legacy across-seed interval."""
    sweeping = _faults_sweeping(request)
    seeds = tuple(request.settings.seeds)
    for rate in _faults_rates(request):
        rate_jobs = [job for job in jobs if job.param("fault_rate") == float(rate)]
        merged, per_seed = assemble_campaign_reports(rate_jobs, results)
        for configuration in merged:
            for seed in seeds:
                report = per_seed[(configuration, seed)]
                key: Tuple[object, ...] = (
                    (float(rate), configuration) if sweeping else (configuration,)
                )
                yield key, {
                    "trials": report.total,
                    "coverage": report.coverage,
                    "silent_corruption_rate": report.silent_corruption_rate,
                }


register_experiment(
    ExperimentSpec(
        name="faults",
        title="fault-injection coverage campaign (cell-shaped: parallel and cached)",
        description=(
            "Coverage of reliable state across protection configurations "
            "(Sections 2.1/3.4); --sweep-rates turns it into the fault-space "
            "sweep of coverage vs fault-rate scale."
        ),
        family="faults",
        grid=_faults_grid,
        enumerate_jobs=_faults_jobs,
        schema=_faults_schema,
        cell_samples=_faults_samples,
        options=(
            SpecOption(
                name="trials",
                flag="--trials",
                parse=parse_positive_int,
                default=50,
                metavar="N",
                help="trials per (configuration, fault site, seed) (default: 50)",
            ),
            SpecOption(
                name="sweep_rates",
                flag="--sweep-rates",
                parse=parse_rate_list,
                metavar="R1,R2,...",
                help="sweep these fault-rate scales and print coverage vs rate",
            ),
            SpecOption(
                name="all_configurations",
                flag="--all-configurations",
                is_flag=True,
                help="include the extended configurations (e.g. dmr-plus-pab)",
            ),
        ),
        takes_workloads=False,
        run_all_group="faults",
    )
)


# ===================================================================== #
# Fleet: a traffic-driven datacenter of mixed-mode machines
# ===================================================================== #


def parse_scenario_list(value: str) -> Tuple[str, ...]:
    """A comma list of fleet scenario names, validated against the built-ins."""
    names = tuple(
        dict.fromkeys(part.strip() for part in value.split(",") if part.strip())
    )
    if not names:
        raise argparse.ArgumentTypeError("needs at least one scenario name")
    unknown = [name for name in names if name not in SCENARIO_NAMES]
    if unknown:
        known = ", ".join(SCENARIO_NAMES)
        raise argparse.ArgumentTypeError(
            f"unknown scenario(s) {', '.join(unknown)} (known: {known})"
        )
    return names


def _fleet_settings(request: SpecRequest) -> ExperimentSettings:
    """The request's settings with the fleet flags folded in.

    With no explicit flags this is the settings object itself, which is what
    lets ``run_all_experiments`` and the distributed coordinator size the
    fleet purely through settings (the shared enumeration path passes no
    per-spec options)."""
    overrides: Dict[str, object] = {}
    scenarios = request.option("scenarios")
    if scenarios is not None:
        overrides["fleet_scenarios"] = tuple(scenarios)
    machines = request.option("machines")
    if machines is not None:
        overrides["fleet_machines"] = int(machines)
    racks = request.option("racks")
    if racks is not None or machines is not None:
        # A fleet never has more racks than machines: clamp the explicit
        # rack count, or the settings' default when only --machines shrank
        # the fleet (a one-machine fleet gets one rack).
        racks = request.settings.fleet_racks if racks is None else racks
        overrides["fleet_racks"] = min(
            int(racks), int(machines or request.settings.fleet_machines)
        )
    settings = request.settings
    return dataclasses.replace(settings, **overrides) if overrides else settings


def _fleet_grid(request: SpecRequest) -> ParameterGrid:
    settings = _fleet_settings(request)
    return ParameterGrid.of(
        ("scenario", settings.fleet_scenarios),
        ("machine", fleet_topology(settings).machines()),
        ("seed", settings.seeds),
    )


def _fleet_schema(request: SpecRequest) -> MetricSchema:
    settings = _fleet_settings(request)
    return MetricSchema(
        keys=("scenario",),
        metrics=(
            _ipc_metric("fleet_throughput", "fleet throughput"),
            _ipc_metric("p99_degraded_throughput", "p99 degraded throughput"),
            MetricColumn("availability", label="availability", fmt="{:.4f}"),
            MetricColumn("migrations", aggregate="mean", fmt="{:.1f}"),
            MetricColumn(
                "exposure_cycles", unit="cycles", aggregate="mean",
                label="upgrade exposure", fmt="{:.0f}",
            ),
        ),
        views=(
            FrameView(
                title=(
                    f"Fleet SLOs: {settings.fleet_machines} machines / "
                    f"{settings.fleet_racks} racks under scripted traffic "
                    "(per-machine cells, MMM-TP)"
                ),
                metrics=(
                    "fleet_throughput",
                    "p99_degraded_throughput",
                    "availability",
                    "migrations",
                    "exposure_cycles",
                ),
            ),
        ),
    )


register_experiment(
    ExperimentSpec(
        name="fleet",
        title="fleet scenarios: traffic-driven datacenter of mixed-mode machines",
        description=(
            "Seeded traffic models (diurnal waves, flash crowds, rack-scoped "
            "failure storms, rolling reliability upgrades) drive a fleet of "
            "consolidated MMM-TP servers; the scheduler places and migrates "
            "burst VMs, and each machine runs as one cacheable engine cell. "
            "Reports fleet SLOs: p99 degraded throughput, availability, "
            "migrations and upgrade exposure."
        ),
        grid=_fleet_grid,
        enumerate_jobs=lambda request: fleet_jobs(_fleet_settings(request)),
        schema=_fleet_schema,
        cell_samples=lambda request, jobs, results: fleet_samples(
            request, jobs, results
        ),
        options=(
            SpecOption(
                name="scenarios",
                flag="--scenarios",
                parse=parse_scenario_list,
                metavar="S1,S2,...",
                help=(
                    "fleet scenarios to run, e.g. 'failure-storm,diurnal' "
                    "(default: the settings' scenario list)"
                ),
            ),
            SpecOption(
                name="machines",
                flag="--machines",
                parse=parse_positive_int,
                metavar="N",
                help="fleet size in machines (default: the settings' fleet size)",
            ),
            SpecOption(
                name="racks",
                flag="--racks",
                parse=parse_positive_int,
                metavar="N",
                help="racks to spread the fleet over (default: the settings')",
            ),
        ),
        workload_limit=2,
    )
)


# The fuzz spec lives with its subsystem; importing it here (after every
# registry name above is defined -- it imports back into this module)
# registers the always-on ``fuzz`` experiment.
import repro.sim.fuzz.spec  # noqa: E402,F401  isort:skip
