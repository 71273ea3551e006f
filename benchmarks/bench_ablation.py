"""Ablation bench: HCF baseline, key-rotation designs, RFC 7873 comparison."""

import pytest
from conftest import record

from repro.experiments.ablation import format_ablation, run_ablation

#: The recorded table is ``python -m repro ablation --seed 7``.
SEED = 7


@pytest.fixture(scope="module")
def results():
    return run_ablation(SEED)


def test_ablation(results):
    hcf, rotation, schemes, ingress = results
    record("ablation", format_ablation(*results))

    # HCF's structural false negatives dwarf cookie-guessing odds (§II)
    assert hcf.hcf_false_negative_rate > 0.02
    assert hcf.cookie_false_negative_rate < 1e-9

    # the generation bit preserves every outstanding cookie across a
    # rotation; naive rotation kills them all (§III.E)
    assert rotation.survivors_with_generation_bit == rotation.cookies_issued
    assert rotation.survivors_naive == 0

    # RFC 7873 matches the paper's modified scheme on steady-state
    # throughput (both are ANS-capped on this testbed)
    assert schemes.rfc7873_rps == pytest.approx(schemes.modified_dns_rps, rel=0.1)

    # §II: ingress filtering leaks exactly the non-deploying fraction
    for result in ingress:
        assert result.leak_rate == pytest.approx(
            1.0 - result.deployment_fraction, abs=0.02
        )
