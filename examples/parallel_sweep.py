#!/usr/bin/env python3
"""Sweep the whole evaluation through the parallel experiment engine.

Every (experiment, workload, configuration, seed) cell of the paper's
evaluation is a picklable job with a deterministic cache key.  This example
runs a multi-seed Figure 5 + Figure 6 sweep twice through an
:class:`repro.sim.runner.ExperimentRunner`:

1. cold, fanned out over worker processes -- every cell is simulated, and
   the seed sweep is embarrassingly parallel;
2. warm -- the second run executes *zero* simulation jobs, because every
   cell's result is served from the on-disk result store under
   ``.repro-cache/`` (packed segment files indexed by each cell's cache
   key).

Multi-seed runs feed the experiments' 95% confidence intervals, which is
exactly what the cache makes cheap: adding a seed later only simulates the
new cells.

Run with::

    python examples/parallel_sweep.py
"""

from __future__ import annotations

import os
import time
from dataclasses import replace

from repro.sim.experiments import ExperimentSettings
from repro.sim.runner import ExperimentRunner
from repro.sim.specs import EXPERIMENTS

#: Three seeds per cell so the confidence intervals have spread to report.
SETTINGS = replace(
    ExperimentSettings.quick().with_workloads(("apache", "oltp")), seeds=(0, 1, 2)
)

CACHE_DIR = os.environ.get("REPRO_CACHE_DIR", ".repro-cache")
WORKERS = min(4, os.cpu_count() or 1)
#: Runner backend for the cold sweep: "process" (default), "thread" or
#: "serial" -- the same names `repro --backend` accepts.
BACKEND = os.environ.get("REPRO_SWEEP_BACKEND", "process")


def sweep(runner: ExperimentRunner) -> None:
    for name in ("figure5", "figure6"):
        frame = EXPERIMENTS[name].run(SETTINGS, runner=runner)
        print(frame.to_table())
        print()


def main() -> None:
    print(
        f"Cold sweep across {WORKERS} workers of the {BACKEND!r} backend "
        f"(cache: {CACHE_DIR})..."
    )
    cold = ExperimentRunner(jobs=WORKERS, cache_dir=CACHE_DIR, backend=BACKEND)
    started = time.perf_counter()
    sweep(cold)
    print(f"\ncold: {cold.stats.summary()} in {time.perf_counter() - started:.1f}s")

    print("\nWarm re-run (a fresh runner, same cache directory)...")
    warm = ExperimentRunner(jobs=1, cache_dir=CACHE_DIR)
    started = time.perf_counter()
    sweep(warm)
    print(f"\nwarm: {warm.stats.summary()} in {time.perf_counter() - started:.1f}s")
    assert warm.stats.executed == 0, "a warm cache must not re-simulate anything"


if __name__ == "__main__":
    main()
