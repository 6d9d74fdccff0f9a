#!/usr/bin/env python
"""Distributed-runner scaling benchmark: serial vs process vs worker fleet.

Times the cold quick evaluation (``run-all --quick --no-cache``) through
three execution substrates and emits ``BENCH_distributed.json``:

* **serial** -- the single-process baseline;
* **process** -- the in-process pool (``--jobs 4``);
* **distributed x{1,2,4}** -- a real coordinator subprocess (``repro
  serve``) plus 1, 2 or 4 worker subprocesses (``repro worker``), the
  client submitting through ``--backend distributed``.

Every leg runs the *same* CLI command with a cold cache, so the recorded
wall times are directly comparable; the distributed legs include all
coordination overhead (HTTP, JSON, leases).  The report also records each
leg's speedup over serial -- the distributed x4 leg is the PR's headline
number.

Usage::

    python benchmarks/bench_distributed.py [--repeat N] [--output PATH]

``--repeat`` records N cold runs per leg and reports the best.

This is a plain script that leaves a tracked artefact, not a pytest
module.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Worker-fleet sizes for the distributed legs.
FLEETS = (1, 2, 4)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return env


def _run_all(extra: list, env: dict) -> float:
    command = [
        sys.executable, "-m", "repro", "run-all", "--quick", "--no-cache",
    ] + extra
    start = time.perf_counter()
    subprocess.run(
        command,
        check=True,
        cwd=REPO_ROOT,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    return time.perf_counter() - start


def _start_coordinator(env: dict):
    """Start ``repro serve`` on a free port; returns (process, url)."""
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", "--no-cache"],
        cwd=REPO_ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    line = process.stdout.readline()  # "coordinator listening on http://..."
    url = line.strip().rsplit(" ", 1)[-1]
    if not url.startswith("http"):
        process.terminate()
        raise RuntimeError(f"coordinator did not announce a URL: {line!r}")
    return process, url


def _distributed_once(workers: int, env: dict) -> float:
    coordinator, url = _start_coordinator(env)
    fleet = []
    try:
        for index in range(workers):
            fleet.append(
                subprocess.Popen(
                    [
                        sys.executable, "-m", "repro", "worker",
                        "--coordinator", url, "--id", f"bench-{index}",
                        "--poll", "0.1",
                    ],
                    cwd=REPO_ROOT,
                    env=env,
                    stdout=subprocess.DEVNULL,
                    stderr=subprocess.DEVNULL,
                )
            )
        return _run_all(
            ["--backend", "distributed", "--coordinator", url, "--jobs", str(workers)],
            env,
        )
    finally:
        for process in fleet:
            process.terminate()
        coordinator.terminate()
        for process in fleet:
            process.wait(timeout=10)
        coordinator.wait(timeout=10)


def measure(repeat: int) -> dict:
    env = _env()
    legs: dict = {}

    for name, extra in (
        ("serial", ["--backend", "serial"]),
        ("process_x4", ["--jobs", "4"]),
    ):
        times = [_run_all(extra, env) for _ in range(repeat)]
        legs[name] = {"cold_s": [round(s, 3) for s in times],
                      "cold_best_s": round(min(times), 3)}

    for workers in FLEETS:
        times = [_distributed_once(workers, env) for _ in range(repeat)]
        legs[f"distributed_x{workers}"] = {
            "workers": workers,
            "cold_s": [round(s, 3) for s in times],
            "cold_best_s": round(min(times), 3),
        }

    serial = legs["serial"]["cold_best_s"]
    for leg in legs.values():
        leg["speedup_vs_serial"] = round(serial / leg["cold_best_s"], 2)

    return {
        "benchmark": "distributed",
        "command": "run-all --quick --no-cache",
        "repeat": repeat,
        "python": sys.version.split()[0],
        # Speedup is bounded by the machine: a single-core host shows ~1x
        # for every parallel leg, whatever the backend.
        "cpu_count": os.cpu_count(),
        "legs": legs,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=1,
                        help="cold runs per leg (best is reported)")
    parser.add_argument("--output", type=Path,
                        default=REPO_ROOT / "BENCH_distributed.json",
                        help="where to write the JSON report")
    args = parser.parse_args(argv)

    report = measure(max(1, args.repeat))
    args.output.write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {args.output}")
    print(f"cpu_count: {report['cpu_count']} "
          "(parallel speedup is bounded by available cores)")
    for name in ("serial", "process_x4", *(f"distributed_x{n}" for n in FLEETS)):
        leg = report["legs"][name]
        print(f"{name:>15}: cold {leg['cold_best_s']:7.2f}s "
              f"({leg['speedup_vs_serial']:.2f}x vs serial)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
