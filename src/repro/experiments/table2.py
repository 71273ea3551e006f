"""Table II: average DNS request latency per scheme, cache miss vs hit.

Paper setup: the requesting LRS reaches the ANS over a cable-modem path
with a 10.9 ms RTT.  Expected multiples of the RTT:

=============  =====  ====
scheme         miss   hit
=============  =====  ====
NS name        2x     1x
fabricated     3x     1x
TCP-based      3x     3x
modified DNS   2x     1x
=============  =====  ====

The paper's measured latencies and its §IV.D packets-per-request counts are
ledger rows (:mod:`repro.experiments.expectations`).
"""

from __future__ import annotations

import dataclasses

from ..dns import LrsSimulator, TcpLoadClient
from ..netsim import PacketTracer
from ..obs import current as current_obs
from . import expectations
from .calibration import WAN_RTT
from .testbed import ANS_ADDRESS, GuardTestbed

SCHEMES = expectations.SCHEMES


@dataclasses.dataclass(slots=True)
class LatencyRow:
    """One scheme's latencies, and its wire packets per request at the
    guard (§IV.D; TCP and UDP together for the TCP-based scheme)."""

    scheme: str
    miss_ms: float
    hit_ms: float
    packets_miss: float = 0.0
    packets_hit: float = 0.0


def _build(scheme: str, seed: int):
    """Testbed + WAN client + load generator for one scheme."""
    if scheme == "ns_name":
        bed = GuardTestbed(seed=seed, ans="simulator", ans_mode="referral")
        client = bed.add_client("lrs", wan=True)
        lrs = LrsSimulator(client, ANS_ADDRESS, workload="referral", timeout=0.2)
    elif scheme == "fabricated":
        bed = GuardTestbed(seed=seed, ans="simulator", ans_mode="answer")
        client = bed.add_client("lrs", wan=True)
        lrs = LrsSimulator(client, ANS_ADDRESS, workload="nonreferral", timeout=0.2)
    elif scheme == "tcp":
        bed = GuardTestbed(seed=seed, ans="simulator", ans_mode="answer", guard_policy="tcp")
        client = bed.add_client("lrs", wan=True)
        lrs = LrsSimulator(client, ANS_ADDRESS, workload="plain", timeout=0.2)
    elif scheme == "modified":
        bed = GuardTestbed(seed=seed, ans="simulator", ans_mode="answer")
        client = bed.add_client("lrs", wan=True, via_local_guard=True)
        lrs = LrsSimulator(client, ANS_ADDRESS, workload="plain", timeout=0.2)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    return bed, lrs


def measure_scheme(scheme: str, *, seed: int = 0, iterations: int = 12) -> tuple[float, float]:
    """(cache-miss ms, cache-hit ms) for one scheme."""
    bed, lrs = _build(scheme, seed)
    lrs.record_latencies = True
    lrs.start()
    # WAN RTT is ~11 ms; give each iteration up to 4 RTTs
    bed.run(iterations * 0.05)
    lrs.stop()
    latencies = lrs.latencies
    if len(latencies) < 4:
        raise RuntimeError(f"scheme {scheme}: only {len(latencies)} samples")
    miss = latencies[0] * 1000.0
    hits = latencies[2:]
    hit = sum(hits) / len(hits) * 1000.0
    return miss, hit


def _packets_per_request(bed, lrs, *, warm: bool, duration: float = 0.2) -> float:
    """Average UDP packets crossing the guard per completed request."""
    if warm:
        lrs.start()
        bed.run(0.05)
        lrs.stop()
        bed.run(0.05)  # drain in-flight work before tracing
    tracer = PacketTracer(bed.guard_node)
    completed_before = lrs.stats.completed
    lrs.start()
    bed.run(duration)
    lrs.stop()
    bed.run(0.05)
    tracer.detach()
    completed = lrs.stats.completed - completed_before
    if completed <= 0:
        raise RuntimeError("no completed interactions to average over")
    return len(tracer.packets(protocol="udp")) / completed


def measure_packets(scheme: str, *, seed: int = 0) -> tuple[float, float]:
    """(cache-miss, cache-hit) wire packets per request at the guard (§IV.D).

    Runs on a LAN testbed (no WAN delay) so the run fits the same duration
    budget as the latency pass; the packet arithmetic is delay-independent.
    """
    if scheme == "ns_name":
        workload, mode = "referral", "referral"
    elif scheme == "fabricated":
        workload, mode = "nonreferral", "answer"
    elif scheme == "modified":
        workload, mode = "plain", "answer"
    elif scheme == "tcp":
        bed = GuardTestbed(seed=seed, ans="simulator", ans_mode="answer", guard_policy="tcp")
        client = bed.add_client("lrs")
        tcp = TcpLoadClient(client, ANS_ADDRESS, concurrency=1)
        tracer = PacketTracer(bed.guard_node)
        tcp.start()
        bed.run(0.2)
        tcp.stop()
        bed.run(0.1)
        tracer.detach()
        if tcp.stats.completed <= 0:
            raise RuntimeError("no completed TCP requests to average over")
        total = len(tracer.packets(protocol="tcp")) + len(tracer.packets(protocol="udp"))
        per_request = total / tcp.stats.completed
        return per_request, per_request  # no cookie cache: hit == miss
    else:
        raise ValueError(f"unknown scheme {scheme!r}")

    counts = []
    for phase in ("miss", "hit"):
        cached = phase == "hit"
        bed = GuardTestbed(seed=seed, ans="simulator", ans_mode=mode)
        if scheme == "modified":
            client = bed.add_client("lrs", via_local_guard=True)
            client.local_guard.cache_cookies = cached
            lrs = LrsSimulator(client, ANS_ADDRESS, workload=workload)
        else:
            client = bed.add_client("lrs")
            lrs = LrsSimulator(client, ANS_ADDRESS, workload=workload, cache_cookies=cached)
        counts.append(_packets_per_request(bed, lrs, warm=cached))
    return counts[0], counts[1]


def run_table2(seed: int = 0) -> list[LatencyRow]:
    rows = []
    obs = current_obs()
    for scheme in SCHEMES:
        miss, hit = measure_scheme(scheme, seed=seed)
        # the packet pass runs unconditionally (not only when obs is
        # installed) so the simulation workload — and therefore the
        # --sanitize event-trace hash — is identical with obs on or off.
        packets_miss, packets_hit = measure_packets(scheme, seed=seed)
        rows.append(
            LatencyRow(
                scheme=scheme,
                miss_ms=miss,
                hit_ms=hit,
                packets_miss=packets_miss,
                packets_hit=packets_hit,
            )
        )
        if obs is not None:
            for phase, ms, packets in (
                ("miss", miss, packets_miss),
                ("hit", hit, packets_hit),
            ):
                obs.gauge("table2.latency_ms", scheme=scheme, phase=phase).set(ms)
                obs.gauge(
                    "table2.packets_per_request", scheme=scheme, phase=phase
                ).set(packets)
    return rows


def cells(rows: list[LatencyRow]) -> dict[str, float]:
    out = {}
    rtt_ms = WAN_RTT * 1000
    for row in rows:
        scheme = row.scheme
        out[f"{scheme}.miss"] = row.miss_ms
        out[f"{scheme}.hit"] = row.hit_ms
        out[f"{scheme}.miss/rtt"] = row.miss_ms / rtt_ms
        out[f"{scheme}.hit/rtt"] = row.hit_ms / rtt_ms
        if scheme == "tcp":  # no cookie cache: one count
            out["tcp.packets"] = row.packets_miss
        else:
            out[f"{scheme}.packets.miss"] = row.packets_miss
            out[f"{scheme}.packets.hit"] = row.packets_hit
    return out


def format_table2(rows: list[LatencyRow]) -> str:
    paper = expectations.paper
    lines = [
        "Table II: average DNS request latency (msec); RTT = 10.9 msec",
        f"{'scheme':<12} {'miss':>8} {'paper':>8}   {'hit':>8} {'paper':>8}",
    ]
    for row in rows:
        lines.append(
            f"{row.scheme:<12} {row.miss_ms:>8.1f} {paper('table2', row.scheme + '.miss'):>8.1f}   "
            f"{row.hit_ms:>8.1f} {paper('table2', row.scheme + '.hit'):>8.1f}"
        )
    lines.append("")
    lines.append("Packets per request at the guard (paper IV.D)")
    lines.append(f"{'scheme':<12} {'miss':>8} {'paper':>8}   {'hit':>8} {'paper':>8}")
    for row in rows:
        if row.scheme == "tcp":
            # the paper's "12" is the low end of the ledger's total
            quoted_miss = quoted_hit = paper("table2", "tcp.packets")[0]
        else:
            quoted_miss = paper("table2", row.scheme + ".packets.miss")
            quoted_hit = paper("table2", row.scheme + ".packets.hit")
        lines.append(
            f"{row.scheme:<12} {row.packets_miss:>8.1f} {quoted_miss:>8d}   "
            f"{row.packets_hit:>8.1f} {quoted_hit:>8d}"
        )
    return "\n".join(lines)
