"""Figure 7: the kernel-level TCP proxy's throughput.

(a) Throughput vs number of concurrent DNS-over-TCP requests: ~22K req/s
    around 20 concurrent, degrading to ~11K near 6000 because every proxied
    segment pays a per-open-connection management scan.
(b) Throughput vs UDP attack rate at 50 concurrent requests: the UDP flood
    competes for the guard's CPU, so TCP throughput falls roughly linearly
    to ~10K req/s at 250K attack.  Plain UDP queries are dropped (after the
    cookie checks that prove them plain) in this configuration.
"""

from __future__ import annotations

import dataclasses

from ..attack import SpoofingAttacker
from ..dns import TcpLoadClient
from . import expectations
from .testbed import ANS_ADDRESS, GuardTestbed

DEFAULT_CONCURRENCIES = (1, 10, 20, 50, 100, 500, 1000, 3000, 6000)
DEFAULT_ATTACK_RATES = (0, 50_000, 100_000, 150_000, 200_000, 250_000)


@dataclasses.dataclass(slots=True)
class Fig7aPoint:
    concurrency: int
    throughput: float


@dataclasses.dataclass(slots=True)
class Fig7bPoint:
    attack_rate: float
    throughput: float


def run_fig7a_point(
    concurrency: int, *, seed: int = 0, warmup: float = 0.3, duration: float = 0.4
) -> Fig7aPoint:
    bed = GuardTestbed(seed=seed, ans="simulator", ans_mode="answer", guard_policy="tcp")
    client = bed.add_client("lrs")
    tcp = TcpLoadClient(client, ANS_ADDRESS, concurrency=concurrency)
    tcp.start()
    (rate,) = bed.measure([tcp.stats], duration, warmup=warmup)
    tcp.stop()
    return Fig7aPoint(concurrency, rate)


def run_fig7b_point(
    attack_rate: float, *, seed: int = 0, warmup: float = 0.3, duration: float = 0.4
) -> Fig7bPoint:
    bed = GuardTestbed(seed=seed, ans="simulator", ans_mode="answer", guard_policy="drop")
    client = bed.add_client("lrs")
    tcp = TcpLoadClient(client, ANS_ADDRESS, concurrency=50)
    attacker = None
    if attack_rate > 0:
        attacker_node = bed.add_client("attacker")
        attacker = SpoofingAttacker(attacker_node, ANS_ADDRESS, rate=attack_rate)
        attacker.start()
    tcp.start()
    (rate,) = bed.measure([tcp.stats], duration, warmup=warmup)
    tcp.stop()
    if attacker is not None:
        attacker.stop()
    return Fig7bPoint(attack_rate, rate)


def run_fig7(
    concurrencies=DEFAULT_CONCURRENCIES,
    attack_rates=DEFAULT_ATTACK_RATES,
    *,
    seed: int = 0,
    fast: bool = False,
) -> tuple[list[Fig7aPoint], list[Fig7bPoint]]:
    kwargs = {"warmup": 0.2, "duration": 0.25} if fast else {}
    series_a = [run_fig7a_point(c, seed=seed, **kwargs) for c in concurrencies]
    series_b = [run_fig7b_point(r, seed=seed, **kwargs) for r in attack_rates]
    return series_a, series_b


def cells(series_a: list[Fig7aPoint], series_b: list[Fig7bPoint]) -> dict[str, float]:
    out = {f"a.throughput@{p.concurrency}": p.throughput for p in series_a}
    for p in series_b:
        out[f"b.throughput@{p.attack_rate / 1000:.0f}K"] = p.throughput
    return expectations.derive(
        out,
        "a.throughput@1000/a.throughput@50",
        "a.throughput@6000/a.throughput@50",
        "b.throughput@100K/b.throughput@0K",
        "b.throughput@250K/b.throughput@100K",
    )


def format_fig7(series_a: list[Fig7aPoint], series_b: list[Fig7bPoint]) -> str:
    lines = ["Figure 7(a): TCP proxy throughput vs concurrent requests"]
    lines.append(f"{'concurrent':>11} {'throughput (K/s)':>17}")
    for p in series_a:
        lines.append(f"{p.concurrency:>11} {p.throughput / 1000:>17.1f}")
    lines.append("")
    lines.append("Figure 7(b): TCP proxy throughput vs UDP attack rate (50 concurrent)")
    lines.append(f"{'attack (K/s)':>13} {'throughput (K/s)':>17}")
    for p in series_b:
        lines.append(f"{p.attack_rate / 1000:>13.0f} {p.throughput / 1000:>17.1f}")
    return "\n".join(lines)
