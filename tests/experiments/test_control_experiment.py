"""Smoke tests for the adaptive-control experiment."""

from repro.experiments.control import format_control, run_control


class TestRunControl:
    def test_fast_subset_matrix(self):
        result = run_control(seed=1, fast=True, schemes=("modified", "adaptive"))
        # fast mode: 2 attacks x 2 faults x the 2 requested schemes
        assert len(result.cells) == 8
        adaptive = [c for c in result.cells if c.scheme == "adaptive"]
        assert len(adaptive) == 4
        assert all(not c.ctrl_failed for c in adaptive)

        calm = next(
            c for c in adaptive if c.attack == "calm" and c.fault == "none"
        )
        assert calm.availability > 0.9
        flood = next(
            c for c in adaptive if c.attack == "cookie-flood" and c.fault == "none"
        )
        assert flood.ctrl_max_level >= 1  # the controller actually escalated
        # the controller reverted to the safe config on every crash cell
        assert result.crash_reverts >= 1
        assert result.false_rejects_adaptive == 0

    def test_static_only_skips_win_computation(self):
        result = run_control(seed=1, fast=True, schemes=("modified",))
        assert result.adaptive_wins == []
        assert all(c.scheme == "modified" for c in result.cells)

    def test_format_is_human_readable(self):
        result = run_control(seed=1, fast=True, schemes=("modified", "adaptive"))
        text = format_control(result)
        assert "adaptive" in text
        assert "false rejects" in text
        assert "safe-reverts" in text
