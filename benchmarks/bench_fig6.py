"""Figure 6 bench: guard throughput/CPU under spoofed attack (headline result).

Paper: "the DNS guard can deliver up to 80K requests/sec to legitimate
users in the presence of DoS attacks at the rate of 250K requests/sec",
holding ~full ANS throughput until its own CPU saturates near 200K.
"""

import pytest
from conftest import record

from repro.experiments.fig6 import format_fig6, run_fig6

ATTACK_RATES = (0, 100_000, 200_000, 250_000)


@pytest.fixture(scope="module")
def points():
    return run_fig6(ATTACK_RATES, fast=True)


def test_fig6(points):
    record("fig6", format_fig6(points))
    on = {p.attack_rate: p for p in points if p.protection}
    off = {p.attack_rate: p for p in points if not p.protection}

    # headline: >= 80K legitimate req/s at 250K attack with protection on
    assert on[250_000].legit_throughput >= 80_000

    # protection on holds ~full ANS throughput through 100K attack
    assert on[0].legit_throughput == pytest.approx(110_000, rel=0.1)
    assert on[100_000].legit_throughput == pytest.approx(110_000, rel=0.1)

    # protection off: linear-ish decay, dead by ~ANS capacity
    assert off[0].legit_throughput == pytest.approx(110_000, rel=0.1)
    assert off[100_000].legit_throughput < off[0].legit_throughput * 0.5
    assert off[200_000].legit_throughput < 5_000

    # guard CPU rises ~linearly and saturates by 250K
    assert on[100_000].guard_cpu > on[0].guard_cpu
    assert on[250_000].guard_cpu > 0.95

    # the spoof-detection overhead: enabled CPU above disabled by ~15-25%+
    assert on[100_000].guard_cpu > off[100_000].guard_cpu


def test_fig6_crossover_against_fluid_model(points):
    """The DES knee should fall where the analytical model predicts."""
    from repro.experiments.fluid import FluidModel

    model = FluidModel()
    knee = model.guard_saturation_attack_rate()
    assert 150_000 < knee < 250_000  # the paper's ~200K
    on = {p.attack_rate: p for p in points if p.protection}
    # before the knee the ANS is the bottleneck; past it throughput dips
    assert on[100_000].legit_throughput > on[250_000].legit_throughput
    predicted = model.legit_throughput_under_attack(250_000)
    assert on[250_000].legit_throughput == pytest.approx(predicted, rel=0.15)
