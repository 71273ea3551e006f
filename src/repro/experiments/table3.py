"""Table III: DNS guard throughput (requests/sec) per scheme, miss vs hit.

Paper setup (§IV.D): ANS simulator (~110K req/s capacity) and LRS simulator
on the LAN testbed; cookie caching disabled for the "cache miss" rows.
Expected ordering: NS name ≈ modified DNS > fabricated NS/IP > TCP-based;
cache-hit throughput for the UDP schemes is capped by the ANS simulator
itself (~110K) while the guard sits under 70% CPU.

The paper's eight cells are ledger rows (:mod:`repro.experiments.expectations`).
"""

from __future__ import annotations

import dataclasses

from ..dns import LrsSimulator, TcpLoadClient
from . import expectations
from .testbed import ANS_ADDRESS, GuardTestbed

SCHEMES = expectations.SCHEMES


@dataclasses.dataclass(slots=True)
class ThroughputRow:
    scheme: str
    miss_krps: float
    hit_krps: float


def _run_udp(scheme: str, *, cache: bool, seed: int, warmup: float, duration: float,
             concurrency: int) -> float:
    if scheme == "ns_name":
        bed = GuardTestbed(seed=seed, ans="simulator", ans_mode="referral")
        client = bed.add_client("lrs")
        lrs = LrsSimulator(
            client, ANS_ADDRESS, workload="referral",
            concurrency=concurrency, cache_cookies=cache,
        )
    elif scheme == "fabricated":
        bed = GuardTestbed(seed=seed, ans="simulator", ans_mode="answer")
        client = bed.add_client("lrs")
        lrs = LrsSimulator(
            client, ANS_ADDRESS, workload="nonreferral",
            concurrency=concurrency, cache_cookies=cache,
        )
    elif scheme == "modified":
        bed = GuardTestbed(seed=seed, ans="simulator", ans_mode="answer")
        client = bed.add_client("lrs", via_local_guard=True)
        client.local_guard.cache_cookies = cache
        lrs = LrsSimulator(client, ANS_ADDRESS, workload="plain", concurrency=concurrency)
    else:
        raise ValueError(scheme)
    lrs.start()
    (rate,) = bed.measure([lrs.stats], duration, warmup=warmup)
    lrs.stop()
    return rate


def _run_tcp(*, seed: int, warmup: float, duration: float, concurrency: int = 50) -> float:
    bed = GuardTestbed(seed=seed, ans="simulator", ans_mode="answer", guard_policy="tcp")
    client = bed.add_client("lrs")
    tcp = TcpLoadClient(client, ANS_ADDRESS, concurrency=concurrency)
    tcp.start()
    (rate,) = bed.measure([tcp.stats], duration, warmup=warmup)
    tcp.stop()
    return rate


def measure_scheme(
    scheme: str,
    cache: bool,
    *,
    seed: int = 0,
    warmup: float = 0.15,
    duration: float = 0.3,
    concurrency: int = 192,
) -> float:
    """Saturated throughput (requests/sec) for one scheme/caching mode."""
    if scheme == "tcp":
        return _run_tcp(seed=seed, warmup=warmup, duration=duration)
    return _run_udp(
        scheme, cache=cache, seed=seed, warmup=warmup, duration=duration,
        concurrency=concurrency,
    )


def run_table3(seed: int = 0, *, fast: bool = False) -> list[ThroughputRow]:
    kwargs = {"warmup": 0.1, "duration": 0.2} if fast else {}
    rows = []
    for scheme in SCHEMES:
        miss = measure_scheme(scheme, cache=False, seed=seed, **kwargs)
        hit = measure_scheme(scheme, cache=True, seed=seed, **kwargs)
        rows.append(ThroughputRow(scheme, miss / 1000.0, hit / 1000.0))
    return rows


def cells(rows: list[ThroughputRow]) -> dict[str, float]:
    out = {}
    for row in rows:
        out[f"{row.scheme}.miss"] = row.miss_krps
        out[f"{row.scheme}.hit"] = row.hit_krps
    return expectations.derive(
        out,
        "ns_name.miss/modified.miss",
        "ns_name.miss/fabricated.miss",
        "fabricated.miss/tcp.miss",
    )


def format_table3(rows: list[ThroughputRow]) -> str:
    lines = [
        "Table III: average DNS request throughput (K requests/sec)",
        f"{'scheme':<12} {'miss':>8} {'paper':>8}   {'hit':>8} {'paper':>8}",
    ]
    for row in rows:
        lines.append(
            f"{row.scheme:<12} {row.miss_krps:>8.1f} "
            f"{expectations.paper('table3', row.scheme + '.miss'):>8.1f}   "
            f"{row.hit_krps:>8.1f} {expectations.paper('table3', row.scheme + '.hit'):>8.1f}"
        )
    return "\n".join(lines)
