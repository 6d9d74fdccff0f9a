"""Smoke tests for the paper experiments, run through their specs.

These use :meth:`ExperimentSettings.quick` (a heavily scaled machine and two
workloads) so they exercise the full experiment plumbing -- machine
construction, simulation, frame assembly, table rendering -- in a few
seconds.  The full-scale reproduction numbers are regenerated by the
benchmark harness (see ``README.md``).
"""

from __future__ import annotations

import pytest

from repro.analysis.metrics import percent_change
from repro.errors import ExperimentError
from repro.sim.experiments import (
    FIGURE5_CONFIGS,
    FIGURE6_CONFIGS,
    ExperimentSettings,
)
from repro.sim.specs import EXPERIMENTS


def run(name: str, settings: ExperimentSettings, **options):
    """One spec's frame (workloads as given, never the spec's limit)."""
    return EXPERIMENTS[name].run(settings, explicit_workloads=True, **options)


def measurement_settings(workloads) -> ExperimentSettings:
    """Table 1/2 run seed 0 of the default settings on these workloads."""
    return ExperimentSettings().with_workloads(workloads).with_seeds((0,))


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
    def frame(self):
        return run("figure5", ExperimentSettings.quick())

    def test_rows_and_configs(self, frame):
        assert frame.axis_values("workload") == ExperimentSettings.quick().workloads
        for workload in frame.axis_values("workload"):
            configurations = {
                row["configuration"] for row in frame.select(workload=workload)
            }
            assert configurations == set(FIGURE5_CONFIGS)

    def test_reunion_loses_ipc_and_throughput(self, frame):
        for workload in frame.axis_values("workload"):
            normalized_ipc = frame.normalized(
                "user_ipc", "configuration", "no-dmr-2x", workload=workload
            )
            normalized_tput = frame.normalized(
                "throughput", "configuration", "no-dmr-2x", workload=workload
            )
            assert normalized_ipc["reunion"] < 1.0
            assert normalized_tput["reunion"] < normalized_tput["no-dmr-2x"]
            assert normalized_tput["no-dmr"] < 1.0

    def test_formatting(self, frame):
        rendered = frame.to_table()
        assert "Figure 5(a)" in rendered
        assert "Figure 5(b)" in rendered
        with pytest.raises(ExperimentError):
            frame.value("user_ipc", workload="unknown", configuration="reunion")


class TestFigure6:
    @pytest.fixture(scope="class")
    def frame(self):
        return run("figure6", ExperimentSettings.quick())

    @staticmethod
    def normalized(frame, metric, workload):
        return frame.normalized(metric, "configuration", "dmr-base", workload=workload)

    def test_mixed_mode_improves_the_performance_vm(self, frame):
        for workload in frame.axis_values("workload"):
            performance = self.normalized(frame, "performance_ipc", workload)
            assert performance["mmm-ipc"] > 1.0
            throughput = self.normalized(frame, "performance_throughput", workload)
            assert throughput["mmm-tp"] > 1.0
            overall = self.normalized(frame, "overall_throughput", workload)
            assert overall["mmm-tp"] > 1.0

    def test_reliable_vm_is_not_devastated(self, frame):
        for workload in frame.axis_values("workload"):
            reliable = self.normalized(frame, "reliable_ipc", workload)
            assert reliable["mmm-ipc"] > 0.7
            assert reliable["mmm-tp"] > 0.7

    def test_formatting_and_lookup(self, frame):
        rendered = frame.to_table()
        assert "Figure 6(a)" in rendered
        assert "Figure 6(b)" in rendered
        workload = ExperimentSettings.quick().workloads[0]
        assert set(
            self.normalized(frame, "overall_throughput", workload)
        ) == set(FIGURE6_CONFIGS)


class TestSwitchOverheads:
    @pytest.fixture(scope="class")
    def frame(self):
        # The full-size (paper) configuration is the point of Table 1.
        return run(
            "table1", measurement_settings(("apache",)),
            transitions_to_measure=3, warmup_cycles=3_000,
        )

    def test_leave_is_much_more_expensive_than_enter(self, frame):
        enter = frame.value("enter_dmr_cycles", workload="apache")
        leave = frame.value("leave_dmr_cycles", workload="apache")
        assert leave > enter
        # Dominated by the 8192-line L2 flush.
        assert leave > 8_192

    def test_enter_is_a_couple_of_thousand_cycles(self, frame):
        assert 1_000 <= frame.value("enter_dmr_cycles", workload="apache") <= 6_000

    def test_round_trip_and_formatting(self, frame):
        round_trip = frame.value("enter_dmr_cycles", workload="apache") + frame.value(
            "leave_dmr_cycles", workload="apache"
        )
        assert round_trip > 0
        assert "Table 1" in frame.to_table()


class TestSwitchFrequencyAndSingleOs:
    WORKLOADS = ("apache", "pgbench")
    #: Measurement knobs for Table 1 (transitions) and Table 2 (phases).
    OPTIONS = dict(
        transitions_to_measure=2, warmup_cycles=2_000,
        phases_to_measure=1, measurement_phase_scale=0.02,
    )

    @pytest.fixture(scope="class")
    def frequency(self):
        return run("table2", measurement_settings(self.WORKLOADS), **self.OPTIONS)

    def test_pgbench_has_much_longer_user_phases_than_apache(self, frequency):
        assert frequency.value("user_cycles", workload="pgbench") > 2 * frequency.value(
            "user_cycles", workload="apache"
        )

    def test_single_os_overhead_is_small_and_apache_is_worst(self, frequency):
        study = run("single-os", measurement_settings(self.WORKLOADS), **self.OPTIONS)
        overhead = {
            w: study.value("overhead_percent", workload=w) for w in self.WORKLOADS
        }
        assert overhead["apache"] < 25.0
        assert overhead["apache"] > overhead["pgbench"]
        assert "overhead" in study.to_table()


class TestPabLatencyStudy:
    def test_serial_lookup_slows_only_the_performance_vm(self):
        settings = ExperimentSettings.quick().with_workloads(("apache",))
        frame = run("pab", settings)

        def ipc(metric, lookup):
            return frame.value(metric, workload="apache", lookup=lookup)

        assert ipc("performance_ipc", "serial") <= ipc("performance_ipc", "parallel")
        reliable_change = percent_change(
            ipc("reliable_ipc", "serial"), ipc("reliable_ipc", "parallel")
        )
        assert abs(reliable_change) < 8.0
        assert "serial" in frame.to_table().lower()


class TestWindowAblation:
    def test_bigger_window_and_store_buffer_recover_ipc(self):
        settings = ExperimentSettings.quick().with_workloads(("apache",))
        frame = run("ablation", settings)
        normalized = frame.normalized(
            "user_ipc", "variant", "window128-sc", workload="apache"
        )
        assert normalized["window256-tso"] > normalized["window128-sc"]
        assert "window256-tso" in frame.to_table()
