#!/usr/bin/env python
"""Fleet-subsystem benchmark: cold vs parallel vs warm-cache fleet sweeps.

Times the quick fleet evaluation (``repro fleet --quick``) through the
engine's substrates and emits ``BENCH_fleet.json``:

* **serial** -- the single-process cold baseline (``--no-cache``);
* **process_xN** -- the in-process pool (``--jobs N``; per-machine cells
  fan out, so a fleet parallelises like any other sweep);
* **warm_cache** -- a cold run into a fresh cache directory followed by a
  warm rerun: the warm leg must execute **zero** jobs (the fleet's traffic
  generators and scheduler are deterministic, so every cell's cache key is
  stable), and the report records both wall times plus the executed count.

Honours the harness conventions: ``REPRO_BENCH_JOBS`` sizes the pool leg
(default 4).  Like ``bench_distributed.py`` this is a plain script that
leaves a tracked artefact, not a pytest module.

Usage::

    python benchmarks/bench_fleet.py [--repeat N] [--output PATH]

``--repeat`` records N cold runs per leg and reports the best.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return env


def _fleet(extra: list, env: dict) -> tuple:
    """Run one quick fleet sweep; returns (wall seconds, executed cells)."""
    command = [sys.executable, "-m", "repro", "fleet", "--quick"] + extra
    start = time.perf_counter()
    completed = subprocess.run(
        command,
        check=True,
        cwd=REPO_ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    elapsed = time.perf_counter() - start
    match = re.search(r'"executed": (\d+)', completed.stdout)
    executed = int(match.group(1)) if match else -1
    return elapsed, executed


def measure(repeat: int) -> dict:
    env = _env()
    jobs = max(1, int(os.environ.get("REPRO_BENCH_JOBS", "4") or "4"))
    legs: dict = {}

    for name, extra in (
        ("serial", ["--no-cache", "--backend", "serial"]),
        (f"process_x{jobs}", ["--no-cache", "--jobs", str(jobs)]),
    ):
        times = [_fleet(extra, env)[0] for _ in range(repeat)]
        legs[name] = {
            "cold_s": [round(s, 3) for s in times],
            "cold_best_s": round(min(times), 3),
        }

    with tempfile.TemporaryDirectory(prefix="bench-fleet-cache-") as cache:
        cold_s, cold_executed = _fleet(["--cache-dir", cache], env)
        warm_s, warm_executed = _fleet(["--cache-dir", cache], env)
    if warm_executed != 0:
        raise RuntimeError(
            f"warm fleet rerun executed {warm_executed} cells; expected 0 "
            "(a fleet cell's cache key is not deterministic)"
        )
    legs["warm_cache"] = {
        "cold_s": round(cold_s, 3),
        "cold_executed": cold_executed,
        "warm_s": round(warm_s, 3),
        "warm_executed": warm_executed,
        "warm_speedup": round(cold_s / warm_s, 2),
    }

    serial = legs["serial"]["cold_best_s"]
    legs[f"process_x{jobs}"]["speedup_vs_serial"] = round(
        serial / legs[f"process_x{jobs}"]["cold_best_s"], 2
    )

    return {
        "benchmark": "fleet",
        "command": "fleet --quick",
        "repeat": repeat,
        "jobs": jobs,
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
        "legs": legs,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=1,
                        help="cold runs per leg (best is reported)")
    parser.add_argument("--output", type=Path,
                        default=REPO_ROOT / "BENCH_fleet.json",
                        help="where to write the JSON report")
    args = parser.parse_args(argv)

    report = measure(max(1, args.repeat))
    args.output.write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {args.output}")
    for name, leg in report["legs"].items():
        if name == "warm_cache":
            print(f"{name:>12}: cold {leg['cold_s']:7.2f}s "
                  f"-> warm {leg['warm_s']:5.2f}s "
                  f"({leg['warm_executed']} cells executed warm)")
        else:
            suffix = ""
            if "speedup_vs_serial" in leg:
                suffix = f" ({leg['speedup_vs_serial']:.2f}x vs serial)"
            print(f"{name:>12}: cold {leg['cold_best_s']:7.2f}s{suffix}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
