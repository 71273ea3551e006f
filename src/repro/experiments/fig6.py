"""Figure 6: guard throughput and CPU under spoofed attack (modified DNS).

Paper setup (§IV.E): one legitimate LRS that already holds a valid cookie
saturates the ANS simulator; a spoofing attacker sweeps 0-250K req/s.

Expected shapes:

* protection disabled — legitimate throughput decays roughly linearly,
  reaching ~0 near the ANS capacity (110K) because attack requests steal
  ANS CPU and each legitimate loss stalls its loop for 10 ms;
* protection enabled — throughput holds ≈110K until the *guard's* CPU
  saturates (paper ≈200K attack), then degrades gracefully to ≈80K at
  250K attack;
* guard CPU (enabled) rises ~linearly to 100%; disabled it rises more
  slowly (forwarding is cheaper than checking), the 15-25% gap being the
  spoof-detection overhead.
"""

from __future__ import annotations

import dataclasses

from ..dns import LrsSimulator
from ..attack import SpoofingAttacker
from . import expectations
from .fluid import FluidModel
from .testbed import ANS_ADDRESS, GuardTestbed, measure_window

#: Attack rates swept in the paper's Figure 6 (requests/sec).
DEFAULT_ATTACK_RATES = (0, 50_000, 100_000, 150_000, 200_000, 250_000)


@dataclasses.dataclass(slots=True)
class Fig6Point:
    attack_rate: float
    protection: bool
    legit_throughput: float
    guard_cpu: float
    ans_cpu: float


def run_point(
    attack_rate: float,
    protection: bool,
    *,
    seed: int = 0,
    warmup: float = 0.25,
    duration: float = 0.3,
    concurrency: int = 192,
) -> Fig6Point:
    """One (attack rate, protection) sample of Figure 6."""
    bed = GuardTestbed(
        seed=seed, ans="simulator", ans_mode="answer", guard_enabled=protection
    )
    legit_node = bed.add_client("legit", via_local_guard=True)
    lrs = LrsSimulator(legit_node, ANS_ADDRESS, workload="plain", concurrency=concurrency)
    attacker_node = bed.add_client("attacker")
    attacker = None
    if attack_rate > 0:
        # §IV.E: the attacker "spoofs requests and does not have the right
        # cookie" — its forged cookies fail verification and drop cheaply
        attacker = SpoofingAttacker(
            attacker_node, ANS_ADDRESS, rate=attack_rate, carry_invalid_cookie=True
        )
        attacker.start()
    lrs.start()
    (legit,), (guard_cpu, ans_cpu) = measure_window(
        bed.sim, [lrs.stats], duration, warmup=warmup, nodes=(bed.guard_node, bed.ans_node)
    )
    lrs.stop()
    if attacker is not None:
        attacker.stop()
    return Fig6Point(attack_rate, protection, legit, guard_cpu, ans_cpu)


def run_fig6(
    attack_rates=DEFAULT_ATTACK_RATES, *, seed: int = 0, fast: bool = False
) -> list[Fig6Point]:
    kwargs = {"warmup": 0.15, "duration": 0.2, "concurrency": 128} if fast else {}
    points = []
    for protection in (True, False):
        for rate in attack_rates:
            points.append(run_point(rate, protection, seed=seed, **kwargs))
    return points


def cells(points: list[Fig6Point]) -> dict[str, float]:
    # where the closed form puts the last point of the protected curve
    out = {"fluid@250K": FluidModel().legit_throughput_under_attack(250_000)}
    for p in points:
        side, at = "on" if p.protection else "off", f"@{p.attack_rate / 1000:.0f}K"
        out[f"{side}.legit{at}"] = p.legit_throughput
        out[f"{side}.guard_cpu{at}"] = p.guard_cpu
    return expectations.derive(
        out,
        "on.legit@250K/on.legit@100K",
        "on.legit@250K/fluid@250K",
        "off.legit@100K/off.legit@0K",
        "on.guard_cpu@100K-on.guard_cpu@0K",
        "on.guard_cpu@100K-off.guard_cpu@100K",
    )


def format_fig6(points: list[Fig6Point]) -> str:
    lines = [
        "Figure 6: legitimate throughput and guard CPU vs attack rate (modified DNS)",
        f"{'attack (K/s)':>12} {'protection':>11} {'legit (K/s)':>12} "
        f"{'guard CPU %':>12} {'ANS CPU %':>10}",
    ]
    for p in sorted(points, key=lambda p: (not p.protection, p.attack_rate)):
        lines.append(
            f"{p.attack_rate / 1000:>12.0f} {'on' if p.protection else 'off':>11} "
            f"{p.legit_throughput / 1000:>12.1f} {p.guard_cpu * 100:>12.0f} "
            f"{p.ans_cpu * 100:>10.0f}"
        )
    return "\n".join(lines)
