"""Containment bench: §I's "deployed only when a DoS attack arises" claim.

The guard contains a 200K req/s flood that starts mid-run within a couple
of rate-estimator windows, without training or tuning.
"""

import pytest
from conftest import record

from repro.experiments.containment import format_containment, run_containment


@pytest.fixture(scope="module")
def result():
    return run_containment()


def test_containment(result):
    record("containment", format_containment(result))

    # baseline at the ANS's full capacity before the attack
    assert result.baseline_throughput == pytest.approx(110_000, rel=0.1)
    # contained: legitimate throughput back to >=90% of baseline...
    assert result.contained
    # ...within a few rate-estimator windows (each 100 ms)
    assert result.recovery_time < 0.5
    # and it stays recovered for the rest of the attack
    tail = [
        s.value
        for s in result.throughput
        if s.time > result.attack_start + result.recovery_time + 0.1
    ]
    assert tail
    assert min(tail) > 0.9 * result.baseline_throughput
