"""The quickstart scenario: one resolver behind a local guard, a guarded
ANS, and a spoofed invalid-cookie flood.

``python -m repro demo`` prints its three headline counters;
``python -m repro obs`` runs the same scenario, at a lighter flood rate,
under an :class:`~repro.obs.Observability` with a packet tap.
"""

from __future__ import annotations

from ..attack import SpoofingAttacker
from ..dns import LrsSimulator
from ..obs import Observability, installed
from .testbed import ANS_ADDRESS, GuardTestbed

#: Spoofed flood rates (requests/sec): the demo's, and the lighter one the
#: observed showcase runs so its packet tap and report stay readable.
DEMO_ATTACK_RATE = 50_000
OBSERVED_ATTACK_RATE = 5_000

#: Simulated seconds the observed showcase runs (full, ``fast``).
OBSERVED_DURATION = 1.0
OBSERVED_FAST_DURATION = 0.25


def _guarded_flood(seed: int, attack_rate: float):
    """Build the scenario, not yet started: ``(bed, resolver, attacker)``."""
    bed = GuardTestbed(seed=seed, ans="simulator", ans_mode="answer")
    resolver_node = bed.add_client("resolver", via_local_guard=True)
    resolver = LrsSimulator(resolver_node, ANS_ADDRESS, workload="plain")
    attacker = SpoofingAttacker(
        bed.add_client("attacker"), ANS_ADDRESS, rate=attack_rate, carry_invalid_cookie=True
    )
    return bed, resolver, attacker


def run_demo(seed: int = 0) -> tuple[int, int, int]:
    """``(legitimate answers, forged requests dropped, requests at the ANS)``
    after one simulated second."""
    bed, resolver, attacker = _guarded_flood(seed, DEMO_ATTACK_RATE)
    resolver.start()
    attacker.start()
    bed.run(1.0)
    return resolver.stats.completed, bed.guard.invalid_drops, bed.ans.requests_served


def format_demo(answered: int, dropped: int, reached_ans: int) -> str:
    return (
        f"One simulated second under a {DEMO_ATTACK_RATE // 1000}K req/s spoofed flood:\n"
        f"  legitimate answers: {answered}\n"
        f"  forged requests dropped: {dropped}\n"
        f"  requests reaching the ANS: {reached_ans}"
    )


def run_observed_flood(seed: int = 0, *, fast: bool = False) -> Observability:
    """Run the scenario under an Observability with a packet tap on the
    guard node; returns the collected Observability."""
    obs = Observability()
    with installed(obs):
        bed, resolver, attacker = _guarded_flood(seed, OBSERVED_ATTACK_RATE)
        obs.tap(bed.guard_node, protocol="udp", max_records=40)
        resolver.start()
        attacker.start()
        bed.run(OBSERVED_FAST_DURATION if fast else OBSERVED_DURATION)
    obs.collect()
    return obs
