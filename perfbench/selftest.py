"""Checks of the benchmark itself, and recording of its reference digests.

``python3 perfbench/run.py --self-test`` runs every workload at its tiny
size and checks that

* an untraced and a traced run print every metric BENCHMARK.json names,
  with its unit, and pass their correctness checks (the traced run's
  include the spans' coverage and the workload's exercised layers);
* a wrong reference digest, and warm runs that execute cells, are both
  reported as ``error_rate`` 1 (``failed == attempted``, checks failed).

``python3 perfbench/run.py --record-reference`` records the seed-0 output
digest of every workload at every size in ``perfbench/reference.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil

import run as bench
from workloads import DEFAULT_SEED, SIZES, WORKLOADS


class WarmOnEmptyStore(bench.Run):
    """A run whose warm re-runs get an empty store, so they execute cells."""

    def warm_runs(self, store, trace):
        empty = self.fresh_store()
        try:
            return super().warm_runs(empty, trace)
        finally:
            shutil.rmtree(empty, ignore_errors=True)


def _args(workload: str, **overrides) -> argparse.Namespace:
    values = dict(workload=workload, seed=DEFAULT_SEED, seconds=0.0, trace=0, size="tiny")
    values.update(overrides)
    return argparse.Namespace(**values)


def _printed(workload: str, trace: int) -> list:
    label = f"{workload} --trace {trace}"
    result = bench.benchmark(_args(workload, trace=trace))
    problems = []
    if not result["correct"] or result["failed"]:
        problems.append(f"{label}: checks failed: {result}")
    for name, unit in bench.declared_metrics(bool(trace)).items():
        metric = result["metrics"].get(name)
        if (
            metric is None
            or metric.get("unit") != unit
            or not isinstance(metric.get("value"), (int, float))
            or not math.isfinite(metric["value"])
        ):
            problems.append(f"{label}: metric {name} [{unit}] not printed: {metric}")
    return problems


def _caught(label: str, run: bench.Run) -> list:
    bench.measure(run, 0.0)
    if not run.problems or run.failed != run.attempted:
        return [f"{label} not reported as error_rate 1 ({run.failed} of {run.attempted} failed)"]
    return []


def self_test() -> int:
    problems = []
    for workload in WORKLOADS:
        problems += _printed(workload, trace=0)
        problems += _printed(workload, trace=1)
        problems += _caught(f"{workload}: wrong digest", bench.Run(_args(workload), reference="0" * 64))
        problems += _caught(f"{workload}: warm runs executing cells", WarmOnEmptyStore(_args(workload), None))
    for problem in problems:
        print(f"SELF-TEST FAILED: {problem}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def record_reference() -> int:
    digests = {}
    for workload in WORKLOADS:
        digests[workload] = {}
        for size in SIZES:
            run = bench.Run(_args(workload, size=size), reference=None)
            out = run.repetition()
            if run.problems:
                print("\n".join(run.problems))
                return 1
            digests[workload][size] = out["digest"]
    bench.REFERENCE.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {bench.REFERENCE}")
    return 0
