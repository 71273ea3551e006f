"""Fluid-model cross-check: closed-form predictions vs the paper's numbers.

Mirrors §IV.D's consistency arguments: the guard's throughput ratios should
follow packet-count x cost arithmetic.
"""

import pytest
from conftest import record

from repro.experiments.fluid import FluidModel, format_predictions
from repro.experiments.table3 import PAPER_KRPS


@pytest.fixture(scope="module")
def model():
    return FluidModel()


def test_fluid_predictions(model):
    record("fluid", format_predictions(model))

    # predictions land within 15% of the paper's Table III
    for scheme in ("ns_name", "fabricated", "tcp", "modified"):
        predicted = model.throughput(scheme, cache_hit=False) / 1000
        assert predicted == pytest.approx(PAPER_KRPS[scheme]["miss"], rel=0.15)
    for scheme in ("ns_name", "fabricated", "modified"):
        predicted = model.throughput(scheme, cache_hit=True) / 1000
        assert predicted == pytest.approx(PAPER_KRPS[scheme]["hit"], rel=0.1)


def test_fluid_ratio_arguments(model):
    """The paper's §IV.D ratio bounds, re-derived from the cost model."""
    miss_ns = model.request_cost("ns_name", cache_hit=False)
    miss_fab = model.request_cost("fabricated", cache_hit=False)
    hit = model.request_cost("ns_name", cache_hit=True)
    # "theoretically, their throughput should be between 3/2 (cookie
    # computation) and 8/6 (packet processing) times that of the
    # fabricated NS name/IP scheme"
    assert 8 / 6 <= miss_fab / miss_ns <= 3 / 2 + 0.2
    # cache hit is the cheapest UDP path
    assert hit < miss_ns < miss_fab


def test_fig6_predictions(model):
    assert model.guard_saturation_attack_rate() == pytest.approx(200_000, rel=0.1)
    assert model.legit_throughput_under_attack(250_000) == pytest.approx(
        80_000, rel=0.2
    )
    assert model.unprotected_legit_throughput(110_000) == pytest.approx(0, abs=1)


def test_fig7_predictions(model):
    assert model.tcp_proxy_throughput(50) == pytest.approx(22_700, rel=0.1)
    # management overhead roughly halves throughput by 6000 connections
    assert model.tcp_proxy_throughput(6000) < model.tcp_proxy_throughput(50) * 0.6
    assert model.tcp_proxy_under_attack(250_000) == pytest.approx(10_000, rel=0.25)
