"""Span tracing of the program's layers, from outside the program.

:func:`install` wraps public entry points of each layer module (by patching
the attribute where callers look it up) so that every call records a span
``(name, start, end, parent, cell)``.  Spans stay in memory until
:meth:`Tracer.write`.  Counts are taken at the same boundaries, from the
calls' arguments and results.  :func:`layer_metrics` derives the per-layer
metrics, self times and the spans' coverage of the evaluation included, from
the spans of the one evaluation a traced process makes.

Only the benchmark's traced run installs these wrappers; the measured
end-to-end runs never import this module.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: Job kinds reported per kind (``jobs.<kind>.cells`` / ``jobs.<kind>.s``).
JOB_KINDS = (
    "figure5",
    "figure6",
    "pab",
    "ablation",
    "degradation",
    "churn",
    "fleet",
    "fuzz",
    "faults",
    "table1",
    "table2",
)

#: Simulated memory-hierarchy counters summed over ``Simulator.run`` results:
#: ``hierarchy_stats`` key -> metric name.
HIERARCHY_COUNTERS = {
    "l1d.misses": "hierarchy.l1d_misses",
    "l2.misses": "hierarchy.l2_misses",
    "l3.misses": "hierarchy.l3_misses",
    "c2c_transfers": "hierarchy.c2c_transfers",
    "remote_invalidations": "hierarchy.remote_invalidations",
    "offchip_bytes": "hierarchy.offchip_bytes",
}

#: A span: name, start, end (``perf_counter`` seconds), parent index (-1 for
#: a root span) and the label of the cell it ran in ("" outside cells).
Span = Tuple[str, float, float, int, str]


class Tracer:
    """Collects spans and counters in memory."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        self._cell = ""
        self._warm_seen: set = set()

    @contextmanager
    def span(self, name: str, cell: Optional[str] = None) -> Iterator[None]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(index)
        outer_cell = self._cell
        if cell is not None:
            self._cell = cell
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self._cell)
            self._cell = outer_cell

    def wrap(
        self,
        name: str,
        function: Callable,
        count: Optional[Callable[[tuple, dict, object], None]] = None,
    ) -> Callable:
        """``function`` with a span around each call; ``count`` sees the
        call's arguments and result afterwards."""

        def traced(*args, **kwargs):
            with self.span(name):
                result = function(*args, **kwargs)
            if count is not None:
                count(args, kwargs, result)
            return result

        return traced

    def write(self, path) -> None:
        """Write every span, one JSON array per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                if span is not None:
                    handle.write(json.dumps(span) + "\n")

    # -- counters ---------------------------------------------------------- #

    def add(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def count_warm(self, args: tuple, kwargs: dict, result: object) -> None:
        core_id, addresses = args[1], args[2]
        secondary = kwargs.get("secondary_core", args[3] if len(args) > 3 else None)
        key = (core_id, secondary, hash(tuple(addresses)))
        self.add("hierarchy.warm.calls")
        self.add("hierarchy.warm.lines", int(result))
        if key in self._warm_seen:
            self.add("hierarchy.warm.repeats")
        else:
            self._warm_seen.add(key)


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point for the rest of the process."""
    import repro.faults.cells as fault_cells
    import repro.sim.fleet.cells as fleet_cells
    import repro.sim.fuzz.cells as fuzz_cells
    from repro.cpu.timing import CoreTimingModel
    from repro.mem.hierarchy import MemoryHierarchy
    from repro.sim.frames import ResultFrame
    from repro.sim.jobs import ExperimentJob
    from repro.sim.runner import RunnerStats
    from repro.sim.simulator import Simulator
    from repro.sim.store import ResultCache

    add = tracer.add

    def count_simulation(args, kwargs, result) -> None:
        add("simulator.runs")
        add("simulator.user_instructions", sum(vm.user_instructions for vm in result.vm_results))
        for key, metric in HIERARCHY_COUNTERS.items():
            add(metric, result.hierarchy_stats.get(key, 0))

    def count_quantum(args, kwargs, result) -> None:
        add("timing.run_quantum.calls")
        add("timing.instructions", result.instructions)

    def count_load(args, kwargs, result) -> None:
        add("store.load_many.calls")
        add("store.load_many.keys", len(args[1]))
        add("store.load_many.hits", len(result))

    def count_store(args, kwargs, result) -> None:
        add("store.store_many.calls")
        add("store.store_many.records", len(args[1]))

    def count_chunk(args, kwargs, result) -> None:
        add("campaign.chunks")
        add("campaign.trials", len(result))

    phase = RunnerStats.phase

    @contextmanager
    def traced_phase(self, name):
        with tracer.span("runner." + name.replace("-", "_")), phase(self, name):
            yield

    assemble = ResultFrame.__dict__["assemble"].__func__
    RunnerStats.phase = traced_phase
    Simulator.run = tracer.wrap("simulator.run", Simulator.run, count_simulation)
    MemoryHierarchy.warm = tracer.wrap("hierarchy.warm", MemoryHierarchy.warm, tracer.count_warm)
    CoreTimingModel.run_quantum = tracer.wrap("timing.run_quantum", CoreTimingModel.run_quantum, count_quantum)
    ResultCache.load_many = tracer.wrap("store.load_many", ResultCache.load_many, count_load)
    ResultCache.store_many = tracer.wrap("store.store_many", ResultCache.store_many, count_store)
    ResultCache.flush = tracer.wrap("store.flush", ResultCache.flush)
    ExperimentJob.cache_key = tracer.wrap("jobs.cache_key", ExperimentJob.cache_key)
    ResultFrame.assemble = classmethod(tracer.wrap("frames.assemble", assemble))
    # Looked up by name in the modules that call them.
    fault_cells.run_trial_chunk = tracer.wrap("campaign.run_trial_chunk", fault_cells.run_trial_chunk, count_chunk)
    fleet_cells.fleet_plan = tracer.wrap("fleet.plan", fleet_cells.fleet_plan)
    fuzz_cells.run_oracles = tracer.wrap("fuzz.run_oracles", fuzz_cells.run_oracles)
    fuzz_cells.shrink = tracer.wrap("fuzz.shrink", fuzz_cells.shrink)


def traced_executor(tracer: Tracer) -> Callable:
    """The runner's cell executor with one ``jobs.<kind>`` span per cell."""
    from repro.sim.jobs import execute_job

    def execute(job):
        with tracer.span("jobs." + job.kind, cell=job.label):
            metrics = execute_job(job)
        tracer.add(f"jobs.{job.kind}.cells")
        return metrics

    return execute


# ---------------------------------------------------------------------- #
# Derivation
# ---------------------------------------------------------------------- #


def layer_metrics(tracer: Tracer, seconds: float) -> Dict[str, float]:
    """Per-layer metrics of the one evaluation traced in this process, which
    took ``seconds``.

    ``trace.coverage`` is the share of ``seconds`` spent in layer spans (any
    span but a runner phase, counted once where layer spans nest), and
    ``trace.execute_coverage`` the share of the runner's execute phase spent
    in the layer spans directly below it.  A layer whose wrapper is bypassed
    lowers both."""
    spans = tracer.spans
    total: Dict[str, float] = defaultdict(float)
    children: Dict[int, float] = defaultdict(float)
    # Per span: is it, or is one of its ancestors, a layer span?
    in_layer: List[bool] = []
    layer_s = 0.0
    below_phase: Dict[str, float] = defaultdict(float)
    for name, start, end, parent, _cell in spans:
        duration = end - start
        total[name] += duration
        is_phase = name.startswith("runner.")
        inside = parent >= 0 and in_layer[parent]
        in_layer.append(inside or not is_phase)
        if parent >= 0:
            children[parent] += duration
        if not (is_phase or inside):
            layer_s += duration
            if parent >= 0:
                below_phase[spans[parent][0]] += duration
    self_time: Dict[str, float] = defaultdict(float)
    for index, (name, start, end, _parent, _cell) in enumerate(spans):
        self_time[name] += end - start - children[index]

    def counter(name: str) -> float:
        return tracer.counters.get(name, 0.0)

    metrics: Dict[str, float] = {
        "runner.enumerate_s": total["runner.enumerate"],
        "runner.cache_hit_s": total["runner.cache_hit"],
        "runner.execute_s": total["runner.execute"],
        "runner.assemble_s": total["runner.assemble"],
    }
    for kind in JOB_KINDS:
        metrics[f"jobs.{kind}.cells"] = counter(f"jobs.{kind}.cells")
        metrics[f"jobs.{kind}.s"] = total["jobs." + kind]
    metrics["jobs.cache_key_s"] = total["jobs.cache_key"]
    metrics["jobs.self_s"] = sum(self_time["jobs." + kind] for kind in JOB_KINDS)
    for name in ("load_many.calls", "load_many.keys", "load_many.hits"):
        metrics["store." + name] = counter("store." + name)
    metrics["store.load_many_s"] = total["store.load_many"]
    metrics["store.store_many.calls"] = counter("store.store_many.calls")
    metrics["store.store_many.records"] = counter("store.store_many.records")
    metrics["store.store_many_s"] = total["store.store_many"]
    metrics["store.flush_s"] = total["store.flush"]
    metrics["frames.assemble_s"] = total["frames.assemble"]
    metrics["frames.document_s"] = total["frames.document"]
    run_s = total["simulator.run"]
    metrics["simulator.runs"] = counter("simulator.runs")
    metrics["simulator.run_s"] = run_s
    metrics["simulator.self_s"] = self_time["simulator.run"]
    metrics["simulator.user_kinstr_per_s"] = (
        counter("simulator.user_instructions") / run_s / 1000.0 if run_s else 0.0
    )
    warm_calls = counter("hierarchy.warm.calls")
    metrics["hierarchy.warm.calls"] = warm_calls
    metrics["hierarchy.warm.lines"] = counter("hierarchy.warm.lines")
    metrics["hierarchy.warm_s"] = total["hierarchy.warm"]
    metrics["hierarchy.warm.repeat_ratio"] = (
        counter("hierarchy.warm.repeats") / warm_calls if warm_calls else 0.0
    )
    for metric in HIERARCHY_COUNTERS.values():
        metrics[metric] = counter(metric)
    quantum_s = total["timing.run_quantum"]
    instructions = counter("timing.instructions")
    metrics["timing.run_quantum.calls"] = counter("timing.run_quantum.calls")
    metrics["timing.run_quantum_s"] = quantum_s
    metrics["timing.instructions"] = instructions
    metrics["timing.ns_per_instruction"] = quantum_s / instructions * 1e9 if instructions else 0.0
    metrics["fleet.plan_s"] = total["fleet.plan"]
    metrics["fuzz.run_oracles_s"] = total["fuzz.run_oracles"]
    metrics["fuzz.shrink_s"] = total["fuzz.shrink"]
    metrics["campaign.chunks"] = counter("campaign.chunks")
    metrics["campaign.trials"] = counter("campaign.trials")
    metrics["campaign.run_trial_chunk_s"] = total["campaign.run_trial_chunk"]
    metrics["trace.coverage"] = layer_s / seconds
    execute_s = total["runner.execute"]
    metrics["trace.execute_coverage"] = below_phase["runner.execute"] / execute_s if execute_s else 0.0
    metrics["trace.spans"] = float(len(spans))
    return metrics
