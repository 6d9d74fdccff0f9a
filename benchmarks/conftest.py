"""Shared fixtures for the benchmark harness.

Each benchmark module regenerates one of the paper's tables or figures and
prints it next to the paper's reported numbers so the shapes can be compared
directly.

The underlying experiments are expensive (tens of simulated runs), so results
are cached at session scope: the benchmark that *first* needs an experiment
times its execution; sibling benchmarks that present another view of the same
data (e.g. Figure 5(b) after Figure 5(a)) reuse the cached result and only
time the analysis step.

Set ``REPRO_BENCH_QUICK=1`` to run the whole harness on a heavily scaled
configuration with two workloads (useful for smoke-testing the harness
itself; the numbers are then not meaningful).

Every experiment is a registered spec (``EXPERIMENTS[name].run(...)``) and
every result a :class:`~repro.sim.frames.ResultFrame`, so the benchmarks
read cells with ``frame.value``/``frame.mean_of``/``frame.normalized`` and
print ``frame.to_table()``.

The experiments run through the experiment engine of
:mod:`repro.sim.runner`.  Set ``REPRO_BENCH_JOBS=N`` to fan the simulation
cells out over N workers, ``REPRO_BENCH_BACKEND=<name>`` to pick the runner
backend (``serial``, ``process``, ``distributed``), ``REPRO_BENCH_SEEDS=N`` to
widen the seed sweep (default: one seed, so timings stay comparable across
runs), and ``REPRO_BENCH_CACHE=<dir>`` to reuse the on-disk result cache
across harness runs (off by default: a cached cell costs no simulation
time, which would make the recorded timings meaningless).
"""

from __future__ import annotations

import os

import pytest

from repro.sim.experiments import ExperimentSettings
from repro.sim.runner import ExperimentRunner, set_default_runner


def _quick() -> bool:
    return os.environ.get("REPRO_BENCH_QUICK", "0") not in ("0", "", "false")


def _engine_runner() -> ExperimentRunner:
    """The runner described by the REPRO_BENCH_* environment variables."""
    jobs = int(os.environ.get("REPRO_BENCH_JOBS", "1") or "1")
    cache_dir = os.environ.get("REPRO_BENCH_CACHE") or None
    backend = os.environ.get("REPRO_BENCH_BACKEND") or None
    return ExperimentRunner(jobs=max(1, jobs), cache_dir=cache_dir, backend=backend)


@pytest.fixture(scope="session", autouse=True)
def bench_runner():
    """Install the harness-wide experiment runner as the engine default."""
    runner = _engine_runner()
    set_default_runner(runner)
    yield runner
    set_default_runner(None)


@pytest.fixture(scope="session")
def bench_settings() -> ExperimentSettings:
    """Experiment settings used by every benchmark.

    The seed sweep is pinned to one seed (override with
    ``REPRO_BENCH_SEEDS=N``) rather than inheriting the library's ten-seed
    default: benchmark timings are compared across runs, and silently
    multiplying the simulated cells would invalidate every recorded number.
    """
    seeds = tuple(range(max(1, int(os.environ.get("REPRO_BENCH_SEEDS", "1") or "1"))))
    base = ExperimentSettings.quick() if _quick() else ExperimentSettings()
    return base.with_seeds(seeds)


def measurement_settings(bench_settings: ExperimentSettings) -> ExperimentSettings:
    """Settings of the Table 1 / Table 2 / single-OS measurements.

    These keep their paper-size parameters even under ``REPRO_BENCH_QUICK``
    (8 transitions after an 8k-cycle warm-up on the full-size machine for
    Table 1; 3 phases at phase scale 0.1 for Table 2) and run seed 0 of the
    harness's workloads; pass ``explicit_workloads=True`` alongside them.
    """
    return (
        ExperimentSettings().with_workloads(bench_settings.workloads).with_seeds((0,))
    )


class _ExperimentCache:
    """Lazily computed experiment frames, kept for the whole harness run."""

    def __init__(self, settings: ExperimentSettings) -> None:
        self.settings = settings
        self._results = {}

    def get(self, key: str, compute):
        if key not in self._results:
            self._results[key] = compute()
        return self._results[key]

    def peek(self, key: str):
        return self._results.get(key)


#: The session's cache, kept in a module global so the terminal-summary hook
#: can render every reproduced table after the benchmark table.
_ACTIVE_CACHE: _ExperimentCache | None = None


@pytest.fixture(scope="session")
def experiment_cache(bench_settings) -> _ExperimentCache:
    """Session-wide cache of experiment results."""
    global _ACTIVE_CACHE
    _ACTIVE_CACHE = _ExperimentCache(bench_settings)
    return _ACTIVE_CACHE


#: Cache keys (spec names) whose frames the summary hook renders.
_REPORT_SECTIONS = ("figure5", "figure6", "pab", "table1", "table2", "ablation")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print every reproduced table so the run log doubles as the report."""
    if _ACTIVE_CACHE is None:
        return
    terminalreporter.write_sep("=", "reproduced tables and figures")
    for key in _REPORT_SECTIONS:
        frame = _ACTIVE_CACHE.peek(key)
        if frame is None:
            continue
        terminalreporter.write_line("")
        terminalreporter.write_line(frame.to_table())


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
