"""One process of a benchmark repetition, in a fresh interpreter.

``run.py`` starts this script for every evaluation it times, so each one
pays the imports and the lazy per-process work (the source fingerprint
folded into every cache key, for one) that a user's fresh ``repro`` process
pays.  The script

1. sets up -- imports ``repro``, loads the spec registry, opens the result
   store ``--store`` -- and records the ``time.monotonic()`` instant it was
   ready (the parent subtracts its spawn instant: ``setup_s``);
2. with ``--phase setup``, stops there (a set-up probe); with ``--phase
   cold``, evaluates the workload against the empty store and builds its
   output document (``cold_s``); with ``--phase warm``, does the same
   against the store a cold process filled (``warm_s``);
3. prints one JSON object on stdout.

With ``--trace 1`` the layers are wrapped by :mod:`tracing` after set-up,
the per-layer metrics of the evaluation are added to the output and every
span is written to ``--spans``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path


def _store_footprint(store: Path):
    files = [path for path in store.rglob("*") if path.is_file()]
    return sum(path.stat().st_size for path in files), sum(1 for path in files if path.suffix == ".seg")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--phase", choices=("setup", "cold", "warm"), required=True)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--size", default="full")
    parser.add_argument("--store", required=True, help="result-store directory")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="where --trace 1 writes the spans")
    args = parser.parse_args(argv)

    # -- set-up: what a fresh `repro` process does before its first cell ---- #
    import repro  # noqa: F401
    from repro.sim.jobs import execute_job
    from repro.sim.runner import ExperimentRunner
    from repro.sim.specs import EXPERIMENTS  # noqa: F401  (loads the registry)
    from repro.sim.store import ResultCache

    cache = ResultCache(args.store)
    ready_at = time.monotonic()
    if args.phase == "setup":
        print(json.dumps({"ready_at": ready_at}))
        return 0

    from workloads import WORKLOADS, canonical_bytes

    workload = WORKLOADS[args.workload]
    tracer = None
    executor = execute_job
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        executor = tracing.traced_executor(tracer)
    runner = ExperimentRunner(jobs=1, backend="serial", cache=cache, executor=executor)

    out = {"ready_at": ready_at, "error": None}
    try:
        start = time.perf_counter()
        build_document = workload.run(args.seed, args.size, runner)
        with tracer.span("frames.document") if tracer else nullcontext():
            document = canonical_bytes(build_document())
        out.update(
            seconds=time.perf_counter() - start,
            cells=runner.stats.total,
            executed=runner.stats.executed,
            digest=hashlib.sha256(document).hexdigest(),
        )
        if tracer:
            layers = tracing.layer_metrics(tracer, out["seconds"])
            for name in ("executed", "cached", "memoized"):
                layers["runner." + name] = getattr(runner.stats, name)
            out["layers"] = layers
        if args.phase == "cold":
            out["store_bytes"], out["segments"] = _store_footprint(Path(args.store))
    except Exception:  # a raising cell fails the run; report it, do not crash
        out["error"] = traceback.format_exc()
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer and args.spans:
        tracer.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
