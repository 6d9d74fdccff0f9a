#!/usr/bin/env python3
"""Add your own experiment in ~30 lines: a declarative ``ExperimentSpec``.

The experiment layer is driven by the central ``EXPERIMENTS`` registry of
:mod:`repro.sim.specs`: an experiment is a spec object declaring its
parameter grid, how grid points become engine jobs, and the (required)
``MetricSchema`` naming its key axes and typed metric columns.  Everything
else is generated: the generic assembler folds the runner's metrics into a
``ResultFrame`` (aggregating over seeds with 95% confidence intervals), and
the frame's ``to_table`` / ``to_json`` / ``to_csv`` render straight from
the schema.  Registering the spec makes it a first-class
citizen everywhere -- it gains a CLI subcommand (``repro timeslice-sweep``)
with the engine flags for free, shows up in ``repro list``, rides the
``run-all`` batch, and its frame participates in ``repro export`` and
``repro diff`` baselines.

This example registers a *timeslice sweep*: how the consolidated server's
overall throughput under MMM-TP responds to the gang-scheduling timeslice.
It reuses the existing ``figure6`` job kind -- the timeslice is part of each
cell's settings, so every swept point is an independently cached cell.

Run with::

    python examples/custom_experiment.py
"""

from __future__ import annotations

from dataclasses import replace

from repro.sim.experiments import ExperimentSettings
from repro.sim.frames import FrameView, MetricColumn, MetricSchema
from repro.sim.jobs import ExperimentJob
from repro.sim.runner import ExperimentRunner
from repro.sim.specs import ExperimentSpec, ParameterGrid, register_experiment

TIMESLICES = (10_000, 25_000, 50_000)

# --- the ~30 lines: grid, jobs, schema, registration ---------------------


def timeslice_jobs(request):
    base = request.settings.cell_settings()
    return [
        ExperimentJob(
            kind="figure6", workload="apache", variant="mmm-tp", seed=seed,
            settings=replace(base, timeslice_cycles=timeslice),
            # The swept axis rides in the job params, so the spec's schema
            # key ("timeslice") resolves straight off the job.
            params=(("timeslice", timeslice),),
        )
        for timeslice in TIMESLICES
        for seed in request.settings.seeds
    ]


SCHEMA = MetricSchema(
    keys=("timeslice",),
    metrics=(
        MetricColumn("overall_throughput", unit="instr/cycle", label="overall throughput"),
    ),
    views=(
        FrameView(
            title="Overall MMM-TP throughput vs gang-scheduling timeslice (apache)",
            metrics=("overall_throughput",),
        ),
    ),
)


SPEC = register_experiment(
    ExperimentSpec(
        name="timeslice-sweep",
        title="overall throughput vs gang-scheduling timeslice",
        grid=lambda request: ParameterGrid.of(
            ("timeslice", TIMESLICES), ("seed", request.settings.seeds)
        ),
        enumerate_jobs=timeslice_jobs,
        schema=lambda request: SCHEMA,
    )
)

# --- run it like any other spec ------------------------------------------


def main() -> None:
    runner = ExperimentRunner(jobs=4)
    settings = ExperimentSettings.quick().with_seeds((0, 1, 2))
    frame = SPEC.run(settings, runner=runner)
    print(frame.to_table())
    print()
    print("as CSV:")
    print(frame.to_csv())
    print(f"grid: {SPEC.grid(SPEC.request(settings)).describe()}")
    print(f"engine: {runner.stats.summary()}")


if __name__ == "__main__":
    main()
