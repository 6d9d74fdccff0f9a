"""Tests for the cell-shaped fault-injection campaign.

The campaign's engine contract mirrors the simulation cells':

* **identity** -- a cell is fully described by (configuration, fault site,
  seed, trials chunk, fault rate), and chunking shapes cells without
  changing the assembled report;
* **determinism** -- serial, process-pool and warm-cache runs assemble
  byte-identical coverage reports, and trial outcomes are independent of
  the order cells execute in;
* **serialization** -- trial records and coverage reports survive the JSON
  round trip the on-disk result cache applies.
"""

from __future__ import annotations

import json

import pytest

from repro.config.presets import paper_system_config
from repro.errors import FaultInjectionError
from repro.faults.campaign import (
    DEFAULT_CONFIGURATIONS,
    PAB_WITH_DMR,
    SWEEP_CONFIGURATIONS,
    TRIAL_SITES,
    FaultInjectionCampaign,
    run_trial_chunk,
    trial_rng,
)
from repro.faults.cells import (
    assemble_campaign_reports,
    assemble_coverage_reports,
    assemble_seed_coverage_reports,
    execute_fault_cell,
    fault_campaign_jobs,
)
from repro.faults.models import FaultSite, FaultSpec
from repro.faults.outcomes import CoverageReport, FaultOutcome, TrialRecord
from repro.sim.runner import ExperimentRunner
from repro.sim.settings import ExperimentSettings
from repro.sim.specs import EXPERIMENTS


def small_jobs(**overrides):
    defaults = dict(trials_per_site=10, seeds=(0,), trials_per_cell=4)
    defaults.update(overrides)
    return fault_campaign_jobs(**defaults)


def fresh_runner(jobs: int = 1, **kwargs) -> ExperimentRunner:
    kwargs.setdefault("use_cache", False)
    return ExperimentRunner(jobs=jobs, **kwargs)


def serialized_reports(reports) -> str:
    return json.dumps([r.to_dict() for r in reports.values()], sort_keys=True)


class TestEnumeration:
    def test_one_cell_per_configuration_site_seed_chunk(self):
        jobs = small_jobs(seeds=(0, 1))
        # 3 configurations x 4 sites x 2 seeds x ceil(10/4)=3 chunks.
        assert len(jobs) == 3 * 4 * 2 * 3
        assert {job.kind for job in jobs} == {"faults"}
        assert {job.workload for job in jobs} == set(TRIAL_SITES)
        assert {job.variant for job in jobs} == {c.name for c in DEFAULT_CONFIGURATIONS}

    def test_chunks_partition_the_trials(self):
        jobs = small_jobs()
        per_family = {}
        for job in jobs:
            key = (job.variant, job.workload)
            per_family.setdefault(key, []).append(
                (job.param("first_trial"), job.param("trials"))
            )
        for chunks in per_family.values():
            chunks.sort()
            assert sum(count for _, count in chunks) == 10
            expected_start = 0
            for first, count in chunks:
                assert first == expected_start
                expected_start += count

    def test_jobs_are_picklable_and_cache_keyed(self):
        import pickle

        job = small_jobs()[0]
        assert pickle.loads(pickle.dumps(job)) == job
        assert job.cache_key() == small_jobs()[0].cache_key()
        # The fault rate is part of the cell identity.
        other = small_jobs(fault_rate=0.5)[0]
        assert other.cache_key() != job.cache_key()

    def test_input_validation(self):
        with pytest.raises(FaultInjectionError):
            fault_campaign_jobs(trials_per_site=0)
        with pytest.raises(FaultInjectionError):
            fault_campaign_jobs(trials_per_cell=0)
        with pytest.raises(FaultInjectionError):
            fault_campaign_jobs(seeds=())

    def test_duplicate_seeds_do_not_duplicate_cells(self):
        assert small_jobs(seeds=(0, 0, 1)) == small_jobs(seeds=(0, 1))


class TestDeterminism:
    def test_serial_and_pool_reports_are_byte_identical(self):
        jobs = small_jobs(seeds=(0, 1))
        serial = assemble_coverage_reports(jobs, fresh_runner(1).run_jobs(jobs))
        pooled = assemble_coverage_reports(jobs, fresh_runner(4).run_jobs(jobs))
        assert serialized_reports(serial) == serialized_reports(pooled)

    def test_outcomes_independent_of_cell_execution_order(self):
        jobs = small_jobs()
        forward = fresh_runner(1).run_jobs(jobs)
        backward = fresh_runner(1).run_jobs(list(reversed(jobs)))
        for job in jobs:
            assert forward[job] == backward[job]

    def test_chunking_does_not_change_the_assembled_report(self):
        fine = small_jobs(trials_per_cell=2)
        coarse = small_jobs(trials_per_cell=10)
        assert len(fine) > len(coarse)
        fine_reports = assemble_coverage_reports(fine, fresh_runner(1).run_jobs(fine))
        coarse_reports = assemble_coverage_reports(
            coarse, fresh_runner(1).run_jobs(coarse)
        )
        assert serialized_reports(fine_reports) == serialized_reports(coarse_reports)

    def test_trial_rng_depends_only_on_trial_identity(self):
        a = trial_rng(3, "mmm", "store-reliable", 7)
        b = trial_rng(3, "mmm", "store-reliable", 7)
        assert a.randint(0, 1 << 30) == b.randint(0, 1 << 30)
        c = trial_rng(3, "mmm", "store-reliable", 8)
        assert a.seed != c.seed

    def test_warm_cache_executes_zero_cells(self, tmp_path):
        jobs = small_jobs()
        cold = ExperimentRunner(jobs=1, cache_dir=tmp_path)
        cold_reports = assemble_coverage_reports(jobs, cold.run_jobs(jobs))
        assert cold.stats.executed == len(jobs)

        warm = ExperimentRunner(jobs=2, cache_dir=tmp_path)
        warm_reports = assemble_coverage_reports(jobs, warm.run_jobs(jobs))
        assert warm.stats.executed == 0
        assert warm.stats.cached == len(jobs)
        assert serialized_reports(cold_reports) == serialized_reports(warm_reports)


class TestSerialization:
    def test_trial_record_json_round_trip(self):
        record = run_trial_chunk(
            config=paper_system_config(),
            configuration=DEFAULT_CONFIGURATIONS[1],
            site="store-reliable",
            seed=5,
            first_trial=3,
            trials=1,
        )[0]
        payload = json.loads(json.dumps(record.to_dict()))
        assert TrialRecord.from_dict(payload) == record

    def test_coverage_report_json_round_trip(self):
        report = CoverageReport(configuration="mmm")
        report.extend(
            run_trial_chunk(
                config=paper_system_config(),
                configuration=DEFAULT_CONFIGURATIONS[1],
                site="privileged-register",
                seed=0,
                first_trial=0,
                trials=4,
            )
        )
        payload = json.loads(json.dumps(report.to_dict()))
        rebuilt = CoverageReport.from_dict(payload)
        assert rebuilt == report
        assert rebuilt.coverage == report.coverage

    def test_fault_spec_round_trip_preserves_every_field(self):
        spec = FaultSpec(
            site=FaultSite.STORE_ADDRESS_PATH,
            target_address=0x1234,
            core_id=2,
            duration_operations=3,
        )
        assert FaultSpec.from_dict(spec.to_dict()) == spec


class TestFaultSpace:
    def test_unknown_site_is_rejected(self):
        campaign = FaultInjectionCampaign(config=paper_system_config())
        with pytest.raises(FaultInjectionError, match="known sites"):
            campaign.run_trial(DEFAULT_CONFIGURATIONS[0], "bogus-site", 0)

    def test_pab_with_dmr_keeps_full_coverage(self):
        run = EXPERIMENTS["faults"].execute(
            ExperimentSettings().with_seeds((0,)), runner=fresh_runner(),
            trials=10, configurations=(PAB_WITH_DMR,),
        )
        assert run.frame().mean_of("coverage", configuration="dmr-plus-pab") == 1.0
        reports, _ = assemble_campaign_reports(run.jobs, run.results)
        assert reports["dmr-plus-pab"].count(FaultOutcome.DETECTED_DMR) > 0

    def test_fault_rate_scales_silent_corruption(self):
        sweep = EXPERIMENTS["faults"].run(
            ExperimentSettings().with_seeds((0, 1)), runner=fresh_runner(),
            trials=20, configurations=SWEEP_CONFIGURATIONS, sweep_rates=(0.1, 1.0),
        )

        def cell(metric, rate, configuration):
            return sweep.mean_of(metric, rate=rate, configuration=configuration)

        assert cell("silent_corruption_rate", 0.1, "naive-mode-switch") < cell(
            "silent_corruption_rate", 1.0, "naive-mode-switch"
        )
        # Rate-masked trials never break the protected designs.
        for rate in (0.1, 1.0):
            assert cell("coverage", rate, "mmm") == 1.0
            assert cell("coverage", rate, "dmr-plus-pab") == 1.0

    def test_multi_seed_reports_and_intervals(self):
        run = EXPERIMENTS["faults"].execute(
            ExperimentSettings().with_seeds((0, 1, 2)), runner=fresh_runner(), trials=8
        )
        frame = run.frame()
        _, per_seed = assemble_campaign_reports(run.jobs, run.results)
        for configuration in frame.axis_values("configuration"):
            assert frame.value("trials", configuration=configuration) == (
                8 * len(TRIAL_SITES) * 3
            )
            assert {seed for name, seed in per_seed if name == configuration} == {0, 1, 2}
            assert frame.value("coverage", configuration=configuration).count == 3

    def test_inline_campaign_matches_engine_cells(self):
        # The legacy inline driver and the cell-shaped path are two views of
        # the same trial space: same trials, same outcomes.
        campaign = FaultInjectionCampaign(config=paper_system_config(), seed=0)
        inline = {r.configuration: r for r in campaign.run(trials_per_site=10)}
        jobs = small_jobs()
        engine = assemble_coverage_reports(jobs, fresh_runner().run_jobs(jobs))
        for name, report in engine.items():
            assert report.to_dict() == inline[name].to_dict()


class TestAssembly:
    def test_assembly_ignores_non_fault_jobs(self):
        from repro.sim.experiments import figure5_jobs
        from repro.sim.settings import ExperimentSettings

        jobs = small_jobs()
        extra = figure5_jobs(ExperimentSettings.quick().with_workloads(("apache",)))
        results = fresh_runner().run_jobs(jobs)
        padded = dict(results)
        for job in extra:
            padded[job] = {"user_ipc": 0.0, "throughput": 0.0}
        reports = assemble_coverage_reports([*jobs, *extra], padded)
        assert set(reports) == {c.name for c in DEFAULT_CONFIGURATIONS}

    def test_seed_assembly_partitions_the_merged_report(self):
        jobs = small_jobs(seeds=(0, 1))
        results = fresh_runner().run_jobs(jobs)
        merged = assemble_coverage_reports(jobs, results)
        per_seed = assemble_seed_coverage_reports(jobs, results)
        for name, report in merged.items():
            assert report.total == sum(
                per_seed[(name, seed)].total for seed in (0, 1)
            )

    def test_execute_fault_cell_requires_config(self):
        from dataclasses import replace

        from repro.errors import ExperimentError

        job = replace(small_jobs()[0], config=None)
        with pytest.raises(ExperimentError):
            execute_fault_cell(job)
