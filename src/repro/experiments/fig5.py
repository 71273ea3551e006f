"""Figure 5: a BIND-based ANS under attack, with and without the guard.

Paper setup (§IV.C): BIND ANS (14K req/s UDP capacity), answer TTL 0, two
legitimate LRSs at 1K req/s each (the first using UDP cookies, the second
redirected to TCP whose LRS-side capacity is only ~0.5K req/s), and an
attacker sweeping 0-16K req/s.  The guard's spoof detection activates when
the offered rate crosses the 14K threshold.

Expected shapes:

* protection disabled — legitimate throughput collapses once the attack
  rate passes ~12K (total load > 14K capacity) because BIND drops
  indiscriminately and the LRS's 2-second retry timer amplifies every loss;
  ANS CPU climbs to 100%;
* protection enabled — once the threshold trips, the guard filters all
  attack traffic: ANS CPU falls and legitimate throughput holds at
  ~1.5K req/s (1K UDP + ~0.5K TCP-capped).
"""

from __future__ import annotations

import dataclasses
from ipaddress import IPv4Address

from ..attack import SpoofingAttacker
from ..dns import LrsSimulator
from . import expectations
from .calibration import FIG5_ACTIVATION_THRESHOLD
from .testbed import ANS_ADDRESS, GuardTestbed

DEFAULT_ATTACK_RATES = (0, 4_000, 8_000, 12_000, 14_000, 16_000)

LRS1_IP = IPv4Address("10.0.1.1")
LRS2_IP = IPv4Address("10.0.1.2")

#: The UDP cookie scheme LRS1 exercises: BIND answers www.foo.com
#: non-referentially, so the guard uses fabricated NS/IP cookies (the
#: paper's LRS1 used the NS-name scheme — a ledger deviation).
LRS1_SCHEME = "fabricated"

#: LRS2's TCP stack costs ~0.2 ms/segment, capping it near the paper's
#: observed 0.5K req/s DNS-over-TCP client throughput.
LRS2_TCP_SEGMENT_COST = 2.0e-4


@dataclasses.dataclass(slots=True)
class Fig5Point:
    attack_rate: float
    protection: bool
    legit_throughput: float
    ans_cpu: float


def run_point(
    attack_rate: float,
    protection: bool,
    *,
    seed: int = 0,
    warmup: float = 4.0,
    duration: float = 4.0,
) -> Fig5Point:
    def policy(source: IPv4Address) -> str:
        return "tcp" if source == LRS2_IP else "dns"

    bed = GuardTestbed(
        seed=seed,
        ans="bind",
        answer_ttl=0,
        zone_origin="foo.com.",
        guard_enabled=protection,
        guard_policy=policy,
        activation_threshold=FIG5_ACTIVATION_THRESHOLD if protection else None,
    )
    lrs1_node = bed.add_client("lrs1", address=LRS1_IP)
    lrs2_node = bed.add_client("lrs2", address=LRS2_IP)
    lrs2_node.tcp.segment_cost_fn = lambda open_connections: LRS2_TCP_SEGMENT_COST
    lrs1 = LrsSimulator(
        lrs1_node, ANS_ADDRESS, workload="nonreferral",
        concurrency=64, timeout=2.0, target_rate=1000.0,
    )
    lrs2 = LrsSimulator(
        lrs2_node, ANS_ADDRESS, workload="plain",
        concurrency=64, timeout=2.0, target_rate=1000.0,
    )
    attacker = None
    if attack_rate > 0:
        attacker_node = bed.add_client("attacker")
        attacker = SpoofingAttacker(attacker_node, ANS_ADDRESS, rate=attack_rate)
        attacker.start()
    lrs1.start()
    lrs2.start()
    bed.run(warmup)
    lrs1.stats.begin_window(bed.sim.now)
    lrs2.stats.begin_window(bed.sim.now)
    busy0, t0 = bed.ans_node.cpu.completed_busy_seconds(), bed.sim.now
    bed.run(duration)
    legit = lrs1.stats.throughput(bed.sim.now) + lrs2.stats.throughput(bed.sim.now)
    ans_cpu = bed.ans_node.cpu.utilization(busy0, t0)
    for gen in (lrs1, lrs2):
        gen.stop()
    if attacker is not None:
        attacker.stop()
    return Fig5Point(attack_rate, protection, legit, ans_cpu)


def run_fig5(
    attack_rates=DEFAULT_ATTACK_RATES, *, seed: int = 0, fast: bool = False
) -> list[Fig5Point]:
    kwargs = {"warmup": 2.5, "duration": 2.5} if fast else {}
    points = []
    for protection in (True, False):
        for rate in attack_rates:
            points.append(run_point(rate, protection, seed=seed, **kwargs))
    return points


def cells(points: list[Fig5Point]) -> dict:
    out: dict = {"lrs1.scheme": LRS1_SCHEME}
    for p in points:
        side, at = "on" if p.protection else "off", f"@{p.attack_rate / 1000:.0f}K"
        out[f"{side}.legit{at}"] = p.legit_throughput
        out[f"{side}.ans_cpu{at}"] = p.ans_cpu
    return expectations.derive(
        out, "off.ans_cpu@8K-off.ans_cpu@0K", "on.ans_cpu@16K-on.ans_cpu@8K"
    )


def format_fig5(points: list[Fig5Point]) -> str:
    lines = [
        "Figure 5: BIND throughput and CPU vs attack rate (threshold 14K req/s)",
        f"{'attack (K/s)':>12} {'protection':>11} {'legit (req/s)':>14} {'ANS CPU %':>10}",
    ]
    for p in sorted(points, key=lambda p: (not p.protection, p.attack_rate)):
        lines.append(
            f"{p.attack_rate / 1000:>12.0f} {'on' if p.protection else 'off':>11} "
            f"{p.legit_throughput:>14.0f} {p.ans_cpu * 100:>10.0f}"
        )
    return "\n".join(lines)
