"""Figure 5 bench: BIND under attack with the guard on and off."""

import pytest
from conftest import record

from repro.experiments.fig5 import format_fig5, run_fig5

ATTACK_RATES = (0, 8_000, 12_000, 16_000)


@pytest.fixture(scope="module")
def points():
    return run_fig5(ATTACK_RATES, fast=True)


def test_fig5(points):
    record("fig5", format_fig5(points))
    on = {p.attack_rate: p for p in points if p.protection}
    off = {p.attack_rate: p for p in points if not p.protection}

    # 5(a) disabled: fine until saturation, collapse past ~12K attack
    assert off[0].legit_throughput == pytest.approx(2000, rel=0.1)
    assert off[8_000].legit_throughput == pytest.approx(2000, rel=0.15)
    assert off[16_000].legit_throughput < 500  # collapsed

    # 5(a) enabled: holds ~1.5K (1K UDP + ~0.5K TCP-capped) under attack
    assert on[16_000].legit_throughput > 1200

    # 5(b) disabled: ANS CPU climbs to saturation with the attack rate
    assert off[16_000].ans_cpu > 0.95
    assert off[8_000].ans_cpu > off[0].ans_cpu

    # 5(b) enabled: once the threshold trips, the guard filters the attack
    # and the ANS's CPU falls right back down
    assert on[16_000].ans_cpu < 0.3


def test_fig5_threshold_knee(points):
    """Spoof detection only engages past the 14K activation threshold."""
    on = {p.attack_rate: p for p in points if p.protection}
    # below the threshold everything passes through to the ANS
    assert on[8_000].ans_cpu > 0.5
    # above it the guard takes over
    assert on[16_000].ans_cpu < on[8_000].ans_cpu
