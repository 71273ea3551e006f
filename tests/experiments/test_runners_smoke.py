"""Smoke tests: every experiment runner produces sane output quickly.

``python -m repro report`` runs them at scale against the ledger; these only
prove the runners wire up correctly and their results point the right way.
The paper's values come from the ledger; a tolerance stated here is wider
than the ledger's where the window is shorter.
"""

import pytest

from repro.experiments import fluid
from repro.experiments.expectations import paper
from repro.experiments.ablation import run_hcf_ablation, run_rotation_ablation
from repro.experiments.attacks import run_cookie2_guessing
from repro.experiments.fig6 import run_point as fig6_point
from repro.experiments.fig7 import run_fig7a_point, run_fig7b_point
from repro.experiments.table1 import run_table1
from repro.experiments.table2 import measure_scheme as table2_scheme
from repro.experiments.table3 import measure_scheme as table3_scheme


class TestTableRunners:
    def test_table1_static(self):
        rows, storage = run_table1(fast=True)
        assert storage is None
        assert {row.scheme for row in rows} == {"ns_name", "fabricated", "tcp", "modified"}
        assert all(row.worst_latency_rtt >= row.best_latency_rtt for row in rows)

    def test_table2_single_scheme(self):
        miss, hit = table2_scheme("modified", iterations=6)
        assert miss == pytest.approx(paper("table2", "modified.miss"), rel=0.1)
        assert hit == pytest.approx(paper("table2", "modified.hit"), rel=0.1)

    def test_table3_single_scheme(self):
        rate = table3_scheme("modified", cache=True, warmup=0.05, duration=0.1,
                             concurrency=128)
        assert rate / 1000 == pytest.approx(paper("table3", "modified.hit"), rel=0.1)

    def test_table3_tcp_scheme_at_default_duration(self):
        # 0.15 + 0.30 sim-s closes more connections than TIME_WAIT_CAP, so
        # this is the end-to-end run of TcpStack._forget at the cap (~6 s)
        rate = table3_scheme("tcp", cache=False)
        assert rate / 1000 == pytest.approx(paper("table3", "tcp.miss"), rel=0.05)


class TestFigureRunners:
    def test_fig6_point(self):
        p = fig6_point(0, True, warmup=0.05, duration=0.1, concurrency=64)
        assert p.legit_throughput == pytest.approx(paper("fig6", "on.legit@0K"), rel=0.15)
        assert 0 < p.guard_cpu < 1

    def test_fig7a_point(self):
        p = run_fig7a_point(20, warmup=0.1, duration=0.1)
        assert p.throughput == pytest.approx(paper("fig7", "a.throughput@20"), rel=0.2)

    def test_fig7b_point(self):
        p = run_fig7b_point(0, warmup=0.1, duration=0.1)
        assert p.throughput == pytest.approx(paper("fig7", "b.throughput@0K"), rel=0.2)


class TestAttackRunners:
    def test_guessing_expected_rate(self):
        result = run_cookie2_guessing(packets=508)
        assert result.expected_success_rate == pytest.approx(1 / 254)
        assert result.cookies_accepted == 2  # 508 packets cover the /24 twice


class TestAblationRunners:
    def test_hcf(self):
        result = run_hcf_ablation(clients=100)
        assert 0 <= result.hcf_false_negative_rate <= 1
        assert result.hcf_false_negative_rate > result.cookie_false_negative_rate

    def test_rotation(self):
        result = run_rotation_ablation(cookies=50)
        assert result.survivors_with_generation_bit == 50
        assert result.survivors_naive == 0


class TestFluidModel:
    def test_predictions_positive_and_ordered(self):
        model = fluid.FluidModel()
        assert (
            model.throughput("modified", True)
            >= model.throughput("ns_name", False)
            > model.throughput("fabricated", False)
            > model.throughput("tcp", False)
        )

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            fluid.FluidModel().request_cost("quantum", True)

    def test_saturated_guard_returns_zero(self):
        model = fluid.FluidModel()
        assert model.legit_throughput_under_attack(10**9) == 0.0

    def test_format_runs(self):
        assert "guard saturates" in fluid.format_predictions()
