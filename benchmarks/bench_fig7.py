"""Figure 7 bench: the transparent TCP proxy's throughput."""

import pytest
from conftest import record

from repro.experiments.fig7 import format_fig7, run_fig7

CONCURRENCIES = (20, 50, 1000, 6000)
ATTACK_RATES = (0, 100_000, 250_000)


@pytest.fixture(scope="module")
def series():
    return run_fig7(CONCURRENCIES, ATTACK_RATES, fast=True)


def test_fig7a_concurrency_sweep(series):
    series_a, series_b = series
    record("fig7", format_fig7(series_a, series_b))
    by_conc = {p.concurrency: p for p in series_a}

    # ~22K req/s in the LAN sweet spot (paper: ~22K around 20-50 concurrent)
    assert by_conc[20].throughput == pytest.approx(22_000, rel=0.15)
    assert by_conc[50].throughput == pytest.approx(22_700, rel=0.15)

    # connection-management overhead halves throughput toward 6000
    assert by_conc[6000].throughput < by_conc[50].throughput * 0.6
    assert by_conc[6000].throughput > 4_000  # degraded, not dead


def test_fig7b_attack_sweep(series):
    _, series_b = series
    by_rate = {p.attack_rate: p for p in series_b}

    # ~22.7K with no attack, decaying roughly linearly to ~10K at 250K
    assert by_rate[0].throughput == pytest.approx(22_700, rel=0.15)
    assert by_rate[250_000].throughput == pytest.approx(10_000, rel=0.25)
    assert (
        by_rate[0].throughput
        > by_rate[100_000].throughput
        > by_rate[250_000].throughput
    )
