"""Smoke tests for the extension experiments and remaining CLI paths."""

import pytest

from repro.__main__ import main
from repro.experiments.containment import run_containment
from repro.experiments.sensitivity import (
    format_sensitivity,
    run_sensitivity,
    summarize,
)


class TestSensitivitySmoke:
    def test_one_at_a_time_and_corners_counted(self):
        results = run_sensitivity(factors=(0.5, 1.0, 2.0))
        # 5 fields x 3 factors + 2^5 corners
        assert len(results) == 5 * 3 + 32

    def test_summary_fields(self):
        results = run_sensitivity(factors=(0.5, 1.0, 2.0))
        summary = summarize(results)
        assert 0 <= summary["ordering_holds"] <= 1
        assert summary["configurations"] == len(results)

    def test_format_mentions_claims(self):
        text = format_sensitivity(run_sensitivity(factors=(0.5, 1.0, 2.0)))
        assert "scheme ordering" in text
        assert "protected rate" in text


class TestContainmentSmoke:
    def test_short_run_contains(self):
        result = run_containment(
            attack_rate=200_000.0,
            baseline_duration=0.3,
            attack_duration=0.4,
            sample_interval=0.05,
        )
        assert result.contained
        assert result.recovery_time < 0.3
        assert result.baseline_throughput > 90_000


class TestCliExtras:
    def test_report_command(self, monkeypatch, capsys):
        from repro.experiments import expectations

        # the two artefacts that are closed forms; the rest simulate
        monkeypatch.setattr(
            expectations, "CONFIGURATION", {"fluid": {}, "sensitivity": {}}
        )
        assert main(["report"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# Reproduced results\n")
        assert "## fluid" in out and "## sensitivity" in out
        assert "guard saturates at attack rate" in out  # the rendered table
        assert "| knee | 200000 | 201628 | ±10% | ok | Fig 6 |  |" in out  # and its rows
        judged = len(expectations.rows("fluid")) + len(expectations.rows("sensitivity"))
        assert out.endswith(f"{judged} rows judged, 0 failed.\n")

    def test_sensitivity_command(self, capsys):
        assert main(["sensitivity"]) == 0
        assert "configurations tested" in capsys.readouterr().out

    def test_plot_flag_renders_chart(self, capsys):
        # fluid ignores --plot; use a tiny fig7 instead? too slow — check
        # the plotting module directly through the fig6 plotter contract
        from repro.experiments.fig6 import Fig6Point
        from repro.experiments.plotting import plot_fig6

        points = [
            Fig6Point(0, True, 110_000, 0.5, 1.0),
            Fig6Point(250_000, True, 90_000, 1.0, 0.8),
            Fig6Point(0, False, 110_000, 0.4, 1.0),
            Fig6Point(250_000, False, 0, 0.5, 1.0),
        ]
        chart = plot_fig6(points)
        assert "guard on" in chart and "guard off" in chart
