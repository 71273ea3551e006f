"""§III.G attack-analysis micro-experiments.

Quantifies the claims of the attack analysis section:

* **amplification** — an unguarded ANS reflects large TXT answers toward a
  spoofed victim (the paper's ~10x); the guard caps reflection at its small
  fabricated referral, and Rate-Limiter1 clamps even that;
* **guessing** — spraying the COOKIE2 range succeeds for exactly 1/R_y of
  packets; guessed NS-label cookies succeed for ~2^-32;
* **zombie floods** — a host with a valid cookie is throttled to
  Rate-Limiter2's nominal per-host rate.
"""

from __future__ import annotations

import dataclasses
from ipaddress import IPv4Address

from ..attack import ReflectionAttacker, SpoofingAttacker, VictimMeter, ZombieFlood
from ..dns import AuthoritativeServer, Zone
from ..dnswire import Name, ResourceRecord, RRClass, RRType, TXT, soa_record
from ..guard import UnverifiedResponseLimiter, VerifiedRequestLimiter
from .testbed import ANS_ADDRESS, GuardTestbed


@dataclasses.dataclass(slots=True)
class AmplificationResult:
    guarded: bool
    attacker_bytes: int
    victim_bytes: int

    @property
    def ratio(self) -> float:
        return self.victim_bytes / self.attacker_bytes if self.attacker_bytes else 0.0


def _big_zone() -> Zone:
    """A zone whose TXT answer is ~9x the query — reflection bait.

    The answer is sized to stay just under the 512-byte UDP ceiling, i.e.
    the worst legally-amplifying classic-DNS response.
    """
    zone = Zone("foo.com.")
    zone.add(soa_record("foo.com."))
    zone.add_a("www.foo.com.", "198.51.100.80")
    big = Name.from_text("big.foo.com")
    for _ in range(3):
        zone.add(ResourceRecord(big, RRType.TXT, RRClass.IN, 3600, TXT.single(b"x" * 140)))
    return zone


def run_amplification(
    *, guarded: bool, rate: float = 2000.0, duration: float = 0.5, seed: int = 0,
    rl1: UnverifiedResponseLimiter | None = None,
) -> AmplificationResult:
    bed = GuardTestbed(
        seed=seed, ans="bind", zone_origin="foo.com.", guard_enabled=guarded, rl1=rl1
    )
    bed.ans.zones = [_big_zone()]
    attacker_node = bed.add_client("attacker")
    victim_node = bed.add_client("victim")
    meter = VictimMeter(victim_node)
    attacker = ReflectionAttacker(
        attacker_node, ANS_ADDRESS, victim_node.address,
        rate=rate, qname="big.foo.com", qtype=RRType.TXT,
    )
    attacker.start()
    bed.run(duration)
    attacker.stop()
    return AmplificationResult(guarded, attacker.bytes_sent, meter.bytes_received)


@dataclasses.dataclass(slots=True)
class GuessingResult:
    packets_sent: int
    cookies_accepted: int
    expected_success_rate: float

    @property
    def observed_success_rate(self) -> float:
        return self.cookies_accepted / self.packets_sent if self.packets_sent else 0.0


def run_cookie2_guessing(
    *, packets: int = 2540, seed: int = 0
) -> GuessingResult:
    """Spray the whole COOKIE2 /24 repeatedly from a spoofed victim address."""
    from ..dnswire import make_query
    from ..netsim import DnsPayload, Packet, UdpDatagram

    bed = GuardTestbed(seed=seed, ans="simulator", ans_mode="answer")
    attacker_node = bed.add_client("attacker")
    victim = IPv4Address("10.0.0.10")
    r_y = bed.guard.cookie_host_range
    base = int(bed.guard.cookie_subnet.network_address)
    sent = 0
    for i in range(packets):
        target = IPv4Address(base + 1 + (i % r_y))
        packet = Packet(
            src=victim,
            dst=target,
            segment=UdpDatagram(43000, 53, DnsPayload(make_query("www.foo.com", msg_id=i & 0xFFFF))),
        )
        attacker_node.send(packet)
        sent += 1
    bed.run(1.0)
    return GuessingResult(sent, bed.guard.valid_cookies, 1.0 / r_y)


@dataclasses.dataclass(slots=True)
class StarvationResult:
    """Outcome of the §I bandwidth-starvation (reflection) attack."""

    guarded: bool
    attacker_bandwidth: float  # bytes/sec actually spent by the attacker
    victim_link_capacity: float  # bytes/sec
    legit_sent: int
    legit_delivered: int

    @property
    def legit_delivery_rate(self) -> float:
        return self.legit_delivered / self.legit_sent if self.legit_sent else 0.0


def run_bandwidth_starvation(
    *, guarded: bool, seed: int = 0, duration: float = 1.0
) -> StarvationResult:
    """§I: "an attacker can starve the bandwidth of its victims even if his
    bandwidth is 10 times smaller", by reflecting amplified responses.

    The victim sits behind a 1 Mb/s link; a legitimate peer sends it a
    steady trickle; the attacker reflects big TXT answers off the ANS with
    the victim's address forged.  Unguarded, the ~9x amplification fills the
    victim's downlink and the legitimate traffic drowns; behind the guard,
    the reflection never materialises.
    """
    bed = GuardTestbed(
        seed=seed, ans="bind", zone_origin="foo.com.", guard_enabled=guarded,
        rl1=UnverifiedResponseLimiter(per_source_rate=100.0, per_source_burst=100.0)
        if guarded
        else None,
    )
    bed.ans.zones = [_big_zone()]
    victim_capacity = 125_000.0  # 1 Mb/s in bytes/sec
    victim = bed.add_client("victim")
    victim_link = victim.links[0]
    victim_link.bandwidth = victim_capacity
    victim_link.queue_limit = 0.02

    attacker_node = bed.add_client("attacker")
    # the attacker spends ~25 KB/s — five times less than the victim's
    # 125 KB/s link — which the ~9x amplification turns into ~230 KB/s of
    # reflected responses, nearly twice the victim's downlink
    attacker = ReflectionAttacker(
        attacker_node, ANS_ADDRESS, victim.address,
        rate=450.0, qname="big.foo.com", qtype=RRType.TXT,
    )

    # a legitimate peer sends the victim a steady 250-byte datagram stream
    peer = bed.add_client("peer")
    delivered = [0]
    victim.udp.bind(7000, lambda p, s, sp, d: delivered.__setitem__(0, delivered[0] + 1))
    sent = [0]
    peer_sock = peer.udp.bind_ephemeral(lambda *a: None)

    def send_legit() -> None:
        peer_sock.send(b"x" * 250, victim.address, 7000)
        sent[0] += 1
        bed.sim.schedule(0.01, send_legit)  # 100 datagrams/sec = 25 KB/s

    bed.sim.schedule(0.0, send_legit)
    attacker.start()
    bed.run(duration)
    attacker.stop()
    return StarvationResult(
        guarded=guarded,
        attacker_bandwidth=attacker.bytes_sent / duration,
        victim_link_capacity=victim_capacity,
        legit_sent=sent[0],
        legit_delivered=delivered[0],
    )


@dataclasses.dataclass(slots=True)
class ProbingResult:
    """Outcome of the §III.G guess-then-probe attack on the COOKIE2 range."""

    true_y: int
    identified: list[int]
    rl2_enabled: bool

    @property
    def attacker_succeeded(self) -> bool:
        return self.identified == [self.true_y]


def run_probing_attack(*, rl2_enabled: bool, seed: int = 0) -> ProbingResult:
    """§III.G: flood each guessed COOKIE2 address while probing ANS health.

    The attacker sweeps every y in a small R_y, flooding the candidate
    address with requests spoofed from the victim while measuring the ANS's
    responsiveness with its *own* legitimate queries.  A correct guess lets
    the flood through and saturates the ANS — unless Rate-Limiter2 clamps
    the per-host (victim-address) rate, in which case every candidate looks
    identical and the probe learns nothing.
    """
    from ..attack import SpoofingAttacker
    from ..guard import VerifiedRequestLimiter

    rl2 = (
        VerifiedRequestLimiter(per_host_rate=500.0, per_host_burst=500.0)
        if rl2_enabled
        else None
    )
    bed = GuardTestbed(
        seed=seed,
        ans="simulator",
        ans_mode="answer",
        cookie_subnet="198.18.0.240/28",  # R_y = 14: a small, sweepable range
        rl2=rl2,
    )
    attacker_node = bed.add_client("attacker")
    victim = IPv4Address("10.0.0.200")
    bed.add_client("victim", address=victim)  # the impersonated host exists
    r_y = bed.guard.cookie_host_range
    true_y = bed.guard.cookies.ip_cookie(victim, r_y)
    base = int(bed.guard.cookie_subnet.network_address)

    # the probe: the attacker's own legitimate queries through the guard.
    # Cookie caching is off so every probe exercises a fresh exchange that
    # must reach the ANS — a cached answer would hide the server's health.
    from ..dns import LrsSimulator

    probe = LrsSimulator(
        attacker_node, ANS_ADDRESS, workload="nonreferral", timeout=0.005,
        cache_cookies=False, concurrency=2, target_rate=300.0,
    )
    probe.start()
    bed.run(0.05)  # reach steady state

    identified: list[int] = []
    for y in range(r_y):
        flood = SpoofingAttacker(
            attacker_node,
            IPv4Address(base + 1 + y),
            rate=200_000.0,
            fixed_source=victim,
            qname="flood.foo.com",  # not in the guard's answer cache
        )
        flood.start()
        bed.run(0.01)  # ramp
        timeouts_before = probe.stats.timeouts
        completed_before = probe.stats.completed
        bed.run(0.06)
        flood.stop()
        bed.run(0.01)  # drain
        window_timeouts = probe.stats.timeouts - timeouts_before
        window_completed = probe.stats.completed - completed_before
        total = window_timeouts + window_completed
        # a wrong guess never saturates the ANS, so any substantial probe
        # loss marks the candidate
        if total and window_timeouts / total > 0.25:
            identified.append(y)
    probe.stop()
    return ProbingResult(true_y, identified, rl2_enabled)


@dataclasses.dataclass(slots=True)
class ZombieResult:
    offered_rate: float
    admitted_rate: float
    limiter_rate: float


def run_zombie_flood(
    *, offered_rate: float = 50_000.0, limiter_rate: float = 500.0,
    duration: float = 1.0, seed: int = 0,
) -> ZombieResult:
    """A real-source flood with a valid cookie, against Rate-Limiter2."""
    rl2 = VerifiedRequestLimiter(per_host_rate=limiter_rate, per_host_burst=limiter_rate)
    bed = GuardTestbed(seed=seed, ans="simulator", ans_mode="answer", rl2=rl2)
    zombie_node = bed.add_client("zombie")
    zombie = ZombieFlood(zombie_node, ANS_ADDRESS, rate=offered_rate)
    zombie.start()
    bed.run(0.1)  # cookie acquisition
    served0 = bed.ans.requests_served
    t0 = bed.sim.now
    bed.run(duration)
    admitted = (bed.ans.requests_served - served0) / (bed.sim.now - t0)
    zombie.stop()
    return ZombieResult(offered_rate, admitted, limiter_rate)


def format_attack_report(
    unguarded: AmplificationResult,
    guarded: AmplificationResult,
    guessing: GuessingResult,
    zombie: ZombieResult,
    probing_open: ProbingResult | None = None,
    probing_limited: ProbingResult | None = None,
    starvation: tuple[StarvationResult, StarvationResult] | None = None,
) -> str:
    lines = [
        "Attack analysis (paper §III.G)",
        f"  amplification, no guard:   {unguarded.ratio:>5.2f}x "
        f"({unguarded.victim_bytes} B reflected)",
        f"  amplification, guarded:    {guarded.ratio:>5.2f}x "
        f"({guarded.victim_bytes} B reflected)",
        f"  COOKIE2 guessing: observed {guessing.observed_success_rate:.4%} "
        f"vs expected {guessing.expected_success_rate:.4%}",
        f"  zombie flood: offered {zombie.offered_rate:.0f} req/s, "
        f"ANS saw {zombie.admitted_rate:.0f} req/s "
        f"(Rate-Limiter2 at {zombie.limiter_rate:.0f}/s)",
    ]
    if probing_open is not None and probing_limited is not None:
        lines.append(
            f"  probe-while-flooding: without RL2 the attacker pinpoints "
            f"y={probing_open.identified} (true y={probing_open.true_y}); "
            f"with RL2 it identifies {probing_limited.identified or 'nothing'}"
        )
    if starvation is not None:
        lines += ["", format_starvation(*starvation)]
    return "\n".join(lines)


def format_starvation(unguarded: StarvationResult, guarded: StarvationResult) -> str:
    return "\n".join(
        [
            "Bandwidth starvation (paper §I): reflection at a 1 Mb/s victim",
            f"  attacker spends {unguarded.attacker_bandwidth / 1000:.0f} KB/s "
            f"({unguarded.victim_link_capacity / unguarded.attacker_bandwidth:.1f}x "
            f"smaller than the victim's link)",
            f"  legitimate delivery, unguarded ANS: "
            f"{unguarded.legit_delivery_rate:.0%}",
            f"  legitimate delivery, guarded ANS:   "
            f"{guarded.legit_delivery_rate:.0%}",
        ]
    )


#: Rate-Limiter1 budget (responses/sec and burst, per source) for the
#: guarded amplification run.
AMPLIFICATION_RL1_RATE = 100.0


def run_attacks(seed: int = 0, *, fast: bool = False) -> tuple:
    """Every §III.G result and the §I starvation pair, in
    :func:`format_attack_report` argument order.  ``fast`` skips the two
    probe-while-flooding runs and the starvation pair."""
    rl1 = UnverifiedResponseLimiter(
        per_source_rate=AMPLIFICATION_RL1_RATE, per_source_burst=AMPLIFICATION_RL1_RATE
    )
    results: tuple = (
        run_amplification(guarded=False, seed=seed),
        run_amplification(guarded=True, seed=seed, rl1=rl1),
        run_cookie2_guessing(seed=seed),
        run_zombie_flood(seed=seed),
    )
    if not fast:
        results += (
            run_probing_attack(rl2_enabled=False, seed=seed),
            run_probing_attack(rl2_enabled=True, seed=seed),
            (
                run_bandwidth_starvation(guarded=False, seed=seed),
                run_bandwidth_starvation(guarded=True, seed=seed),
            ),
        )
    return results


def cells(unguarded, guarded, guessing, zombie, probing_open=None, probing_limited=None,
          starvation=None) -> dict:
    """Ledger cells of a :func:`run_attacks` result (same argument order)."""
    out: dict = {
        "amplification.unguarded": unguarded.ratio,
        "amplification.guarded": guarded.ratio,
        "guessing.observed/expected": (
            guessing.observed_success_rate / guessing.expected_success_rate
        ),
        "zombie.admitted/limiter_rate": zombie.admitted_rate / zombie.limiter_rate,
        "zombie.admitted/offered": zombie.admitted_rate / zombie.offered_rate,
    }
    if starvation is not None:  # the full run: probing and starvation too
        out["probing.open.succeeded"] = probing_open.attacker_succeeded
        out["probing.limited.succeeded"] = probing_limited.attacker_succeeded
        out["probing.limited.identified"] = len(probing_limited.identified)
        open_server, behind_guard = starvation
        out["starvation.attacker_bandwidth/victim_link"] = (
            open_server.attacker_bandwidth / open_server.victim_link_capacity
        )
        out["starvation.unguarded.delivery"] = open_server.legit_delivery_rate
        out["starvation.guarded.delivery"] = behind_guard.legit_delivery_rate
    return out
