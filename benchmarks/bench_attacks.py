"""§III.G bench: amplification, cookie guessing, zombie throttling."""

import pytest
from conftest import record

from repro.experiments.attacks import format_attack_report, run_attacks


@pytest.fixture(scope="module")
def results():
    return run_attacks()


def test_attack_analysis(results):
    unguarded, guarded, guessing, zombie, _, _ = results
    record("attacks", format_attack_report(*results))

    # §I: an open server amplifies ~10x; §III.G: the guard bounds it < 1x
    assert unguarded.ratio > 5.0
    assert guarded.ratio < 1.0

    # §III.G: spraying COOKIE2 succeeds with probability exactly 1/R_y
    assert guessing.observed_success_rate == pytest.approx(
        guessing.expected_success_rate, rel=0.01
    )

    # §III.G: a valid-cookie zombie is clamped to Rate-Limiter2's rate
    assert zombie.admitted_rate == pytest.approx(zombie.limiter_rate, rel=0.25)
    assert zombie.admitted_rate < zombie.offered_rate * 0.05


def test_bandwidth_starvation():
    """§I: a reflected flood starves a victim's link; the guard prevents it."""
    from repro.experiments.attacks import format_starvation, run_bandwidth_starvation

    unguarded = run_bandwidth_starvation(guarded=False)
    guarded = run_bandwidth_starvation(guarded=True)
    record("starvation", format_starvation(unguarded, guarded))
    # the attacker's own bandwidth stays far below the victim's link
    assert unguarded.attacker_bandwidth < unguarded.victim_link_capacity / 4
    # unguarded: the reflected flood costs the victim real packet loss
    assert unguarded.legit_delivery_rate < 0.85
    # guarded: nothing reflected, nothing lost
    assert guarded.legit_delivery_rate == pytest.approx(1.0)


def test_probing_attack_defeated_by_rl2(results):
    """§III.G: "Rate-Limiter2 can control the attack request rate and make
    it difficult to check if a guessed y value is correct"."""
    *_, probing_open, probing_limited = results
    # with the limiters open the probe pinpoints the correct y...
    assert probing_open.attacker_succeeded
    # ...and with Rate-Limiter2 engaged it learns nothing
    assert not probing_limited.attacker_succeeded
    assert probing_limited.identified == []
