"""Fault-campaign cells: the ``faults`` job kind of the experiment engine.

This module is the glue between the fault-injection campaign
(:mod:`repro.faults.campaign`) and the experiment engine
(:mod:`repro.sim.jobs` / :mod:`repro.sim.runner`):

* :func:`fault_campaign_jobs` enumerates one picklable
  :class:`~repro.sim.jobs.ExperimentJob` per ``(configuration, fault site,
  seed, trials chunk)`` cell;
* :func:`execute_fault_cell` (registered as the ``faults`` kind) runs one
  chunk of trials and returns the serialized
  :class:`~repro.faults.outcomes.TrialRecord` list as the cell's metrics;
* :func:`assemble_campaign_reports` folds any mix of fresh and cached cell
  results back into per-configuration (and per-seed)
  :class:`~repro.faults.outcomes.CoverageReport` values, in enumeration
  order, so serial, parallel and warm-cache runs assemble byte-identical
  reports.

It lives apart from :mod:`repro.faults.campaign` (and is imported by the
``repro`` package *after* the simulator) so the campaign itself stays free
of engine imports; the import also doubles as the registration side effect
process-pool workers rely on.

At the experiment layer, the campaign is declared as the ``faults``
:class:`~repro.sim.specs.ExperimentSpec` (see :mod:`repro.sim.specs`),
whose ``--sweep-rates`` option turns the coverage comparison into the
fault-space sweep.  Its frame carries the aggregate coverage columns; a
caller that needs the per-trial records folds them from the spec's raw
run::

    run = EXPERIMENTS["faults"].execute(settings, trials=50)
    merged, per_seed = assemble_campaign_reports(run.jobs, run.results)
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.config.presets import paper_system_config
from repro.config.system import SystemConfig
from repro.errors import ExperimentError, FaultInjectionError
from repro.faults.campaign import (
    DEFAULT_CONFIGURATIONS,
    TRIAL_SITES,
    CampaignConfiguration,
    run_trial_chunk,
)
from repro.faults.outcomes import CoverageReport, TrialRecord
from repro.sim.jobs import ExperimentJob, register_job_kind

#: Trials grouped into one cell: small enough to fan a campaign out across
#: workers, large enough to amortise the per-cell campaign construction.
DEFAULT_TRIALS_PER_CELL = 25


def fault_campaign_jobs(
    trials_per_site: int = 50,
    configurations: Sequence[CampaignConfiguration] = DEFAULT_CONFIGURATIONS,
    seeds: Sequence[int] = (0,),
    fault_rate: float = 1.0,
    config: Optional[SystemConfig] = None,
    trials_per_cell: int = DEFAULT_TRIALS_PER_CELL,
) -> List[ExperimentJob]:
    """Every (configuration, fault-site, seed, trials-chunk) campaign cell.

    The chunking (``trials_per_cell``) shapes the cells but not the results:
    trial outcomes depend only on the trial's own identity, so re-chunking a
    sweep changes its cache keys, never its assembled report.
    """
    if trials_per_site < 1:
        raise FaultInjectionError("trials_per_site must be at least 1")
    if trials_per_cell < 1:
        raise FaultInjectionError("trials_per_cell must be at least 1")
    if not seeds:
        raise FaultInjectionError("a fault campaign needs at least one seed")
    # A duplicated seed would enumerate duplicate cells and double-count
    # their trials in the assembled reports.
    seeds = tuple(dict.fromkeys(seeds))
    resolved = (config or paper_system_config()).validate()
    jobs: List[ExperimentJob] = []
    for configuration in configurations:
        for site in TRIAL_SITES:
            for seed in seeds:
                for first_trial in range(0, trials_per_site, trials_per_cell):
                    trials = min(trials_per_cell, trials_per_site - first_trial)
                    jobs.append(
                        ExperimentJob(
                            kind="faults",
                            workload=site,
                            variant=configuration.name,
                            seed=seed,
                            config=resolved,
                            params=(
                                ("dmr_active", configuration.dmr_active),
                                ("fault_rate", float(fault_rate)),
                                ("first_trial", first_trial),
                                ("pab_active", configuration.pab_active),
                                ("transition_verification", configuration.transition_verification),
                                ("trials", trials),
                            ),
                        )
                    )
    return jobs


def _configuration_from_job(job: ExperimentJob) -> CampaignConfiguration:
    """Rebuild the campaign configuration a cell describes in its params."""
    return CampaignConfiguration(
        name=job.variant,
        dmr_active=bool(job.param("dmr_active")),
        pab_active=bool(job.param("pab_active")),
        transition_verification=bool(job.param("transition_verification", True)),
    )


@register_job_kind("faults")
def execute_fault_cell(job: ExperimentJob) -> Dict[str, object]:
    """Run one campaign cell and return its serialized trial records.

    Module-level (and registered at import time) so process-pool workers can
    execute fault cells exactly like simulation cells.
    """
    if job.config is None:
        raise ExperimentError(f"fault cell {job.label} needs a SystemConfig")
    records = run_trial_chunk(
        config=job.config,
        configuration=_configuration_from_job(job),
        site=job.workload,
        seed=job.seed,
        first_trial=int(job.param("first_trial", 0)),
        trials=int(job.param("trials", DEFAULT_TRIALS_PER_CELL)),
        fault_rate=float(job.param("fault_rate", 1.0)),
    )
    return {"trials": [record.to_dict() for record in records]}


def _cell_records(metrics: Mapping[str, object]) -> List[TrialRecord]:
    return [TrialRecord.from_dict(payload) for payload in metrics["trials"]]


def assemble_campaign_reports(
    jobs: Sequence[ExperimentJob],
    results: Mapping[ExperimentJob, Mapping[str, object]],
) -> Tuple[Dict[str, CoverageReport], Dict[Tuple[str, int], CoverageReport]]:
    """Both views of a campaign batch in one pass: merged and per-seed.

    Returns ``(by_configuration, by_configuration_and_seed)``.  Trials are
    concatenated in the order the cells were *enumerated*, never the order
    they executed, so serial, parallel and warm-cache runs of the same sweep
    produce byte-identical reports; each cell's records are deserialized
    once and shared between the two views.  The per-seed view feeds the
    multi-seed confidence intervals of the ``faults`` spec's frame.
    """
    merged: Dict[str, CoverageReport] = {}
    per_seed: Dict[Tuple[str, int], CoverageReport] = {}
    for job in jobs:
        if job.kind != "faults":
            continue
        records = _cell_records(results[job])
        merged.setdefault(
            job.variant, CoverageReport(configuration=job.variant)
        ).extend(records)
        per_seed.setdefault(
            (job.variant, job.seed), CoverageReport(configuration=job.variant)
        ).extend(records)
    return merged, per_seed


def assemble_coverage_reports(
    jobs: Sequence[ExperimentJob],
    results: Mapping[ExperimentJob, Mapping[str, object]],
) -> Dict[str, CoverageReport]:
    """One merged coverage report per configuration, in enumeration order."""
    return assemble_campaign_reports(jobs, results)[0]


def assemble_seed_coverage_reports(
    jobs: Sequence[ExperimentJob],
    results: Mapping[ExperimentJob, Mapping[str, object]],
) -> Dict[Tuple[str, int], CoverageReport]:
    """Per-(configuration, seed) coverage reports, in enumeration order."""
    return assemble_campaign_reports(jobs, results)[1]
