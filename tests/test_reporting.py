"""Tests for the combined plain-text report (``repro report``)."""

from __future__ import annotations

import pytest

from repro.sim.experiments import ExperimentSettings, run_all_experiments


@pytest.mark.slow
def test_full_report_quick_contains_every_section():
    settings = ExperimentSettings.quick()
    report = run_all_experiments(
        settings,
        include_switching=False,
        include_ablation=False,
        include_faults=True,
    ).render()
    assert "Figure 5(a)" in report
    assert "Figure 5(b)" in report
    assert "Figure 6(a)" in report
    assert "Figure 6(b)" in report
    assert "serial PAB" in report or "PAB" in report
    assert "Fault-injection coverage" in report
    for configuration in ("always-dmr", "mmm", "naive-mode-switch"):
        assert configuration in report
