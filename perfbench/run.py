"""The repository's benchmark: cold/warm evaluation time of three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fault-sweep --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --self-test

Every evaluation runs in a fresh interpreter (``perfbench/rep.py``) on the
``serial`` backend.  ``--trace 0`` measures: it starts set-up probes, then
repetitions while they fit in ``--seconds`` -- a cold run, then warm re-runs
against the store it filled, each in a fresh process -- and reports the
median of each end-to-end metric named in ``BENCHMARK.json``.  ``--trace 1``
makes one untraced and one traced repetition and reports the per-layer
metrics (tracing overhead and the spans' coverage included).  Both check
every output; the last line of stdout is one JSON object ``{"correct",
"attempted", "failed", "metrics"}``.
See ``perfbench/README.md`` for the metrics and what each should move.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
WORK = HERE / ".work"
REFERENCE = HERE / "reference.json"

sys.path.insert(0, str(HERE))
from workloads import DEFAULT_SEED, SIZES, WORKLOADS  # noqa: E402

#: ``setup_s`` probes per measured run, on top of every process's set-up.
SETUP_PROBES = 3
#: Cold repetitions per measured run, at least (``cold_s`` is a median).
MIN_REPETITIONS = 2
#: Warm re-runs per repetition, at least, each in a fresh process.
MIN_WARM_RUNS = 3
#: Seconds of warm re-runs per repetition, at least (``warm_s`` is the
#: median of all).  The host's speed wanders over seconds, so the warm
#: samples must cover seconds of the run, not one burst.
WARM_SECONDS = 3.0
#: Share of the evaluation the traced run's layer spans must cover.
MIN_COVERAGE = 0.9
#: Limit on one child process; the whole run must end within 180 s.
CHILD_TIMEOUT = 150


class BenchmarkError(Exception):
    """The benchmark could not measure (as opposed to a failed check)."""


def _child_env() -> Dict[str, str]:
    # REPRO_* variables select cache layouts and directories; the benchmark
    # measures the defaults, whatever the caller's shell has set.
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SOURCE)
    return env


def _spawn(args: List[str], timeout: float) -> tuple:
    """Run ``rep.py`` with ``args``; return (its JSON output, spawn instant)."""
    spawned = time.monotonic()
    try:
        process = subprocess.run(
            [sys.executable, str(HERE / "rep.py"), *args],
            stdout=subprocess.PIPE,
            env=_child_env(),
            cwd=str(ROOT),
            timeout=timeout,
            text=True,
        )
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"repetition exceeded {timeout:.0f}s") from None
    lines = process.stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        raise BenchmarkError(f"repetition exited with code {process.returncode}")
    return json.loads(lines[-1]), spawned


class Run:
    """One benchmark invocation: its processes and checks."""

    def __init__(self, args: argparse.Namespace, reference: Optional[str]) -> None:
        self.args = args
        #: Expected document digest (``None``: the seed has no recorded one).
        self.reference = reference
        self.started = time.monotonic()
        self.problems: List[str] = []
        self.attempted = 0
        #: ``setup_s`` of every process started, probes included.
        self.setups: List[float] = []
        self._stores = 0
        WORK.mkdir(exist_ok=True)

    def fresh_store(self) -> Path:
        self._stores += 1
        store = WORK / f"store-{os.getpid()}-{self._stores}"
        shutil.rmtree(store, ignore_errors=True)
        return store

    def _remaining(self) -> float:
        return max(5.0, min(CHILD_TIMEOUT, 175.0 - (time.monotonic() - self.started)))

    def _process(self, phase: str, store: Path, trace: bool = False) -> dict:
        """Run ``rep.py --phase phase`` on ``store``; return its output."""
        args = ["--phase", phase, "--store", str(store)]
        if phase != "setup":
            args += [
                "--workload", self.args.workload,
                "--seed", str(self.args.seed),
                "--size", self.args.size,
                "--trace", "1" if trace else "0",
            ]
        if trace:
            args += ["--spans", str(WORK / f"spans-{self.args.workload}-seed{self.args.seed}-{phase}.jsonl")]
        out, spawned = _spawn(args, self._remaining())
        self.setups.append(out["ready_at"] - spawned)
        return out

    def setup_probe(self) -> None:
        store = self.fresh_store()
        try:
            self._process("setup", store)
        finally:
            shutil.rmtree(store, ignore_errors=True)

    def repetition(self, trace: bool = False) -> dict:
        """One cold run and its warm re-runs, checked: the cold process's
        output, with the warm processes' outputs under ``"warm"``."""
        store = self.fresh_store()
        try:
            cold = self._process("cold", store, trace)
            cold["warm"] = [] if cold["error"] else self.warm_runs(store, trace)
        finally:
            shutil.rmtree(store, ignore_errors=True)
        self.check(cold)
        return cold

    def warm_runs(self, store: Path, trace: bool) -> List[dict]:
        """Re-runs against ``store``, which the cold run filled, each in a
        fresh process: one traced, or untraced for ``WARM_SECONDS``."""
        if trace:
            return [self._process("warm", store, trace=True)]
        runs: List[dict] = []
        began = time.monotonic()
        while len(runs) < MIN_WARM_RUNS or time.monotonic() - began < WARM_SECONDS:
            runs.append(self._process("warm", store))
        return runs

    def check(self, cold: dict) -> None:
        warm = cold["warm"]
        self.attempted += max(1, cold.get("cells", 0)) + sum(out.get("cells", 0) for out in warm)
        errors = [out["error"] for out in [cold] + warm if out["error"] is not None]
        self.problems += ["evaluation raised:\n" + error for error in errors]
        if errors:
            return
        executed = sum(out["executed"] for out in warm)
        if executed:
            self.problems.append(f"warm runs executed {executed} cells (expected 0)")
        mismatches = sum(out["digest"] != cold["digest"] for out in warm)
        if mismatches:
            self.problems.append(f"{mismatches} warm documents differ from the cold one")
        if self.reference is not None and cold["digest"] != self.reference:
            self.problems.append(f"document digest {cold['digest']} != reference {self.reference}")

    def consistent(self, reps: List[dict], what: str) -> None:
        digests = {rep.get("digest") for rep in reps}
        if len(digests) > 1:
            self.problems.append(f"{what} documents differ: {sorted(map(str, digests))}")

    @property
    def failed(self) -> int:
        # A failed check counts every cell of the run as failed.
        return self.attempted if self.problems else 0


def _completed(reps: List[dict]) -> List[dict]:
    ok = [rep for rep in reps if rep["error"] is None and all(w["error"] is None for w in rep["warm"])]
    if not ok:
        raise BenchmarkError("no repetition completed")
    return ok


def measure(run: Run, seconds: float) -> Dict[str, float]:
    for _ in range(SETUP_PROBES):
        run.setup_probe()
    reps: List[dict] = []
    began = time.monotonic()
    longest = 0.0
    # Past the minimum, start another repetition only if it should end
    # within ``seconds``.
    while len(reps) < MIN_REPETITIONS or time.monotonic() - began + longest <= seconds:
        rep_began = time.monotonic()
        reps.append(run.repetition())
        longest = max(longest, time.monotonic() - rep_began)
    run.consistent(reps, "repetitions'")
    ok = _completed(reps)
    warm_times = [warm["seconds"] for rep in ok for warm in rep["warm"]]
    colds = " ".join(f"{rep['seconds']:.3f}" for rep in ok)
    print(
        f"{len(reps)} repetitions (cold_s {colds}), {len(warm_times)} warm runs, "
        f"{len(run.setups)} set-ups; digest {ok[0]['digest']}"
    )
    return {
        "setup_s": statistics.median(run.setups),
        "cold_s": statistics.median(rep["seconds"] for rep in ok),
        # Pooled over the repetitions: each sees a different stretch of the run.
        "warm_s": statistics.median(warm_times),
        "peak_rss_mb": statistics.median(rep["peak_rss_kb"] for rep in ok) / 1024.0,
        "store_mb": statistics.median(rep["store_bytes"] for rep in ok) / 1e6,
    }


def measure_layers(run: Run) -> Dict[str, float]:
    plain = run.repetition()
    traced = run.repetition(trace=True)
    run.consistent([plain, traced], "traced and untraced")
    if len(_completed([plain, traced])) < 2:
        raise BenchmarkError("a repetition raised; no layer metrics")
    print(f"traced cold {traced['seconds']:.3f}s vs untraced {plain['seconds']:.3f}s; digest {traced['digest']}")
    metrics = dict(traced["layers"])
    metrics["store.segments"] = float(traced["segments"])
    metrics["trace.overhead_s"] = traced["seconds"] - plain["seconds"]
    warm = traced["warm"][0]["layers"]
    for name in ("runner.executed", "runner.cache_hit_s", "runner.assemble_s", "store.load_many_s", "frames.document_s"):
        metrics["warm." + name] = warm[name]
    for name in ("trace.coverage", "trace.execute_coverage"):
        if metrics[name] < MIN_COVERAGE:
            run.problems.append(f"{name} {metrics[name]:.3f} < {MIN_COVERAGE}: layer spans miss evaluation time")
    idle = [name for name in WORKLOADS[run.args.workload].exercised if not metrics[name]]
    if idle:
        run.problems.append(f"layers read 0 on {run.args.workload}: {', '.join(idle)} (a wrapper was bypassed)")
    return metrics


def declared_metrics(trace: bool) -> Dict[str, str]:
    """``{name: unit}`` of the metrics BENCHMARK.json declares for the mode."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        metric["name"]: metric["unit"]
        for metric in declared["per_layer" if trace else "end_to_end"]
    }


def reference_digest(args: argparse.Namespace) -> Optional[str]:
    if args.seed != DEFAULT_SEED:
        return None
    recorded = json.loads(REFERENCE.read_text(encoding="utf-8"))
    return recorded[args.workload][args.size]


def benchmark(args: argparse.Namespace) -> dict:
    """Measure, check and return the result object (raises BenchmarkError)."""
    if not (SOURCE / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no program to measure: {SOURCE / 'repro'} is missing")
    units = declared_metrics(bool(args.trace))
    run = Run(args, reference_digest(args))
    values = measure_layers(run) if args.trace else measure(run, args.seconds)
    missing = sorted(set(units) - set(values))
    if missing:
        raise BenchmarkError(f"metrics not measured: {', '.join(missing)}")
    for name, unit in units.items():
        print(f"{name:<34} {values[name]:>14.6g} {unit}")
    error_rate = run.failed / run.attempted
    print(f"{'error_rate':<34} {error_rate:>14.6g} ratio ({run.failed} of {run.attempted} cells)")
    for problem in run.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    return {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full")
    parser.add_argument("--self-test", action="store_true", help="check the benchmark itself")
    parser.add_argument(
        "--record-reference",
        action="store_true",
        help=f"record the seed-{DEFAULT_SEED} output digests of every workload and size",
    )
    args = parser.parse_args(argv)
    if not (args.self_test or args.record_reference or args.workload):
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.self_test:
        from selftest import self_test

        return self_test()
    if args.record_reference:
        from selftest import record_reference

        return record_reference()
    try:
        result = benchmark(args)
    except BenchmarkError as error:
        print(f"benchmark error: {error}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
