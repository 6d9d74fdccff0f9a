"""Smoke tests for the per-figure experiment entry points.

These use :meth:`ExperimentSettings.quick` (a heavily scaled machine and two
workloads) so they exercise the full experiment plumbing -- machine
construction, simulation, aggregation, formatting -- in a few seconds.  The
full-scale reproduction numbers are regenerated by the benchmark harness
(see ``README.md``).
"""

from __future__ import annotations

import pytest

from repro.errors import ExperimentError
from repro.sim.experiments import (
    FIGURE5_CONFIGS,
    FIGURE6_CONFIGS,
    ExperimentSettings,
    run_dmr_overhead_experiment,
    run_mixed_mode_experiment,
    run_pab_latency_study,
    run_single_os_overhead_study,
    run_switch_frequency_experiment,
    run_switch_overhead_experiment,
    run_window_ablation,
)


@pytest.fixture(scope="module")
def quick_settings():
    return ExperimentSettings.quick()


class TestSettings:
    def test_defaults_cover_all_six_workloads(self):
        assert len(ExperimentSettings().workloads) == 6

    def test_footprint_scale_is_inverse_of_capacity_scale(self):
        assert ExperimentSettings(capacity_scale=8).footprint_scale == pytest.approx(1 / 8)

    def test_transition_scale_preserves_amortisation(self):
        settings = ExperimentSettings(timeslice_cycles=30_000)
        assert settings.transition_cost_scale() == pytest.approx(0.01)

    def test_with_workloads(self):
        assert ExperimentSettings().with_workloads(["apache"]).workloads == ("apache",)


class TestFigure5(object):
    @pytest.fixture(scope="class")
    def result(self):
        return run_dmr_overhead_experiment(ExperimentSettings.quick())

    def test_rows_and_configs(self, result):
        assert [row.workload for row in result.rows] == list(result.settings.workloads)
        for row in result.rows:
            assert set(row.per_thread_ipc) == set(FIGURE5_CONFIGS)
            assert set(row.throughput) == set(FIGURE5_CONFIGS)

    def test_reunion_loses_ipc_and_throughput(self, result):
        for row in result.rows:
            normalized_ipc = row.normalized_ipc()
            normalized_tput = row.normalized_throughput()
            assert normalized_ipc["reunion"] < 1.0
            assert normalized_tput["reunion"] < normalized_tput["no-dmr-2x"]
            assert normalized_tput["no-dmr"] < 1.0

    def test_formatting(self, result):
        assert "Figure 5(a)" in result.format_ipc_table()
        assert "Figure 5(b)" in result.format_throughput_table()
        with pytest.raises(ExperimentError):
            result.row("unknown")


class TestFigure6:
    @pytest.fixture(scope="class")
    def result(self):
        return run_mixed_mode_experiment(ExperimentSettings.quick())

    def test_mixed_mode_improves_the_performance_vm(self, result):
        for row in result.rows:
            performance = row.normalized_performance_ipc()
            assert performance["mmm-ipc"] > 1.0
            throughput = row.normalized_performance_throughput()
            assert throughput["mmm-tp"] > 1.0
            overall = row.normalized_overall_throughput()
            assert overall["mmm-tp"] > 1.0

    def test_reliable_vm_is_not_devastated(self, result):
        for row in result.rows:
            reliable = row.normalized_reliable_ipc()
            assert reliable["mmm-ipc"] > 0.7
            assert reliable["mmm-tp"] > 0.7

    def test_formatting_and_lookup(self, result):
        assert "Figure 6(a)" in result.format_ipc_table()
        assert "Figure 6(b)" in result.format_throughput_table()
        assert set(result.row(result.settings.workloads[0]).overall_throughput) == set(
            FIGURE6_CONFIGS
        )


class TestSwitchOverheads:
    @pytest.fixture(scope="class")
    def result(self):
        # The full-size (paper) configuration is the point of Table 1.
        return run_switch_overhead_experiment(
            workloads=("apache",), transitions_to_measure=3, warmup_cycles=3_000
        )

    def test_leave_is_much_more_expensive_than_enter(self, result):
        row = result.row("apache")
        assert row.leave_dmr_cycles > row.enter_dmr_cycles
        # Dominated by the 8192-line L2 flush.
        assert row.leave_dmr_cycles > 8_192

    def test_enter_is_a_couple_of_thousand_cycles(self, result):
        row = result.row("apache")
        assert 1_000 <= row.enter_dmr_cycles <= 6_000

    def test_round_trip_and_formatting(self, result):
        assert result.average_round_trip_cycles() > 0
        assert "Table 1" in result.format_table()


class TestSwitchFrequencyAndSingleOs:
    @pytest.fixture(scope="class")
    def frequency(self):
        return run_switch_frequency_experiment(
            workloads=("apache", "pgbench"), phases_to_measure=1,
            measurement_phase_scale=0.02,
        )

    def test_pgbench_has_much_longer_user_phases_than_apache(self, frequency):
        assert frequency.row("pgbench").user_cycles > 2 * frequency.row("apache").user_cycles

    def test_single_os_overhead_is_small_and_apache_is_worst(self, frequency):
        overheads = run_switch_overhead_experiment(
            workloads=("apache", "pgbench"), transitions_to_measure=2, warmup_cycles=2_000
        )
        study = run_single_os_overhead_study(overheads, frequency, ("apache", "pgbench"))
        by_name = {row.workload: row for row in study.rows}
        assert by_name["apache"].overhead_percent < 25.0
        assert by_name["apache"].overhead_percent > by_name["pgbench"].overhead_percent
        assert "overhead" in study.format_table()


class TestPabLatencyStudy:
    def test_serial_lookup_slows_only_the_performance_vm(self):
        settings = ExperimentSettings.quick().with_workloads(("apache",))
        result = run_pab_latency_study(settings)
        (row,) = result.rows
        assert row.serial_ipc <= row.parallel_ipc
        assert abs(row.reliable_ipc_change_percent) < 8.0
        assert "serial" in result.format_table().lower()


class TestWindowAblation:
    def test_bigger_window_and_store_buffer_recover_ipc(self):
        settings = ExperimentSettings.quick().with_workloads(("apache",))
        result = run_window_ablation(settings)
        (row,) = result.rows
        normalized = row.normalized()
        assert normalized["window256-tso"] > normalized["window128-sc"]
        assert "window256-tso" in result.format_table()
