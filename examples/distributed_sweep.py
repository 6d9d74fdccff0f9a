#!/usr/bin/env python3
"""Run a sweep through the distributed backend: coordinator + worker fleet.

The distributed runner splits the engine in three pieces that normally live
in one process:

* a **coordinator** (`repro serve`) -- an in-memory job board behind a
  stdlib HTTP server that dedupes submitted cells by their content-addressed
  cache key, leases them to workers in adaptive chunks, and re-queues any
  chunk whose worker dies mid-lease;
* **workers** (`repro worker`) -- pull-based loops that need nothing but
  the coordinator URL: lease, simulate, report, repeat;
* the **client** -- a plain :class:`~repro.sim.runner.ExperimentRunner`
  whose backend ships cells to the coordinator instead of a local pool.
  Caching, stats and frame assembly are untouched, so the results are
  byte-identical to a serial run.

This example hosts all three in one process (threads stand in for the
separate machines), then double-checks determinism against a serial run
and fetches the same cells again through the ``repro serve`` run API.

Run with::

    python examples/distributed_sweep.py
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import asdict, replace

from repro.sim.distributed import (
    CoordinatorClient,
    CoordinatorServer,
    DistributedBackend,
    run_worker,
)
from repro.sim.experiments import ExperimentSettings
from repro.sim.runner import ExperimentRunner
from repro.sim.specs import EXPERIMENTS

#: A seeded multi-workload grid; every cell is deterministic in its seed.
SETTINGS = replace(
    ExperimentSettings.quick().with_workloads(("apache", "oltp")), seeds=(0, 1)
)
WORKERS = 2


def start_worker(url: str, index: int) -> threading.Thread:
    thread = threading.Thread(
        target=run_worker,
        args=(url,),
        kwargs={
            "worker_id": f"example-{index}",
            "poll_seconds": 0.2,
            # Drain once the queue stays empty: lets this example exit.
            "max_idle_seconds": 3.0,
            "announce": lambda message: print(f"  [{message}]"),
        },
        daemon=True,
    )
    thread.start()
    return thread


def main() -> None:
    # In real use these three run on different machines:
    #   repro serve --port 8765                       # coordinator host
    #   repro worker --coordinator http://host:8765   # each worker host
    #   repro figure5 --backend distributed --coordinator http://host:8765
    server = CoordinatorServer(port=0).start()
    print(f"coordinator listening on {server.url}")
    workers = [start_worker(server.url, index) for index in range(WORKERS)]

    print(f"\nDistributed Figure 5 sweep across {WORKERS} workers...")
    runner = ExperimentRunner(
        jobs=WORKERS, use_cache=False, backend=DistributedBackend(server.url)
    )
    started = time.perf_counter()
    figure5 = EXPERIMENTS["figure5"]
    distributed = figure5.run(SETTINGS, runner=runner)
    print(distributed.to_table())
    print(f"\ndistributed: {runner.stats.summary()} "
          f"in {time.perf_counter() - started:.1f}s")

    # Determinism: the remote fleet produced exactly the serial numbers.
    serial = figure5.run(SETTINGS, runner=ExperimentRunner(jobs=1, use_cache=False))
    assert json.dumps(distributed.to_json()) == json.dumps(
        serial.to_json()
    ), "distributed results must be byte-identical to serial"
    print("byte-identical to the serial run: OK")

    # The run API: submit a whole evaluation, poll, fetch the document.
    client = CoordinatorClient(server.url)
    run_id = client.submit_run(asdict(SETTINGS), experiments=["figure5", "pab"])
    print(f"\nsubmitted run {run_id['run']} ({run_id['cells']} cells) via the API")
    while client.run_status(run_id["run"])["state"] != "done":
        time.sleep(0.2)
    document = client.run_document(run_id["run"])
    print(f"run document: {sorted(document['frames'])} "
          f"({len(json.dumps(document))} JSON bytes)")

    for thread in workers:
        thread.join(timeout=30)
    stats = client.stats()
    print(f"\ncoordinator counters: {stats['submitted']} submitted, "
          f"{stats['deduped']} deduped, {stats['completed']} completed, "
          f"{stats['requeues']} requeued")
    server.stop()


if __name__ == "__main__":
    main()
