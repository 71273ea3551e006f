"""Spoofing-based DoS attackers (paper §I: the first attack strategy).

The attacker blasts UDP DNS requests at the protected server with forged
source addresses.  Packets are emitted in per-millisecond batches so the
simulator can sustain the paper's 250K requests/sec attack rates: a batch
draws its sources in one call, and every packet carries the one frozen
template message with the size measured from it once, so the first link
reads a given size rather than measuring each packet.
"""

from __future__ import annotations

from ..dnswire import Name, make_query
from ..netsim import (
    INITIAL_TTL,
    IP_HEADER_BYTES,
    UDP_HEADER_BYTES,
    Address,
    Node,
    Packet,
    UdpDatagram,
    parse_address,
)

#: How often the attacker wakes up to emit a batch of packets.
BATCH_INTERVAL = 0.001


def random_sources(rng, count: int) -> list[int]:
    """``count`` random spoofed source address integers — random, but not
    uniform.

    Bit 24 is forced on, so the first octet is always odd, in 1–223 (never
    0, never class D or E), and the modulo makes first octets 1–31 twice as
    likely as the rest.  The pinned run digests depend on exactly these
    draws, one ``getrandbits(32)`` each, in order.
    """
    getrandbits = rng.getrandbits
    return [(getrandbits(32) % 0xDFFFFFFF) | 0x01000000 for _ in range(count)]


def random_source(rng) -> int:
    """One :func:`random_sources` draw."""
    return random_sources(rng, 1)[0]


class SpoofingAttacker:
    """Open-loop spoofed-source UDP query flood."""

    def __init__(
        self,
        node: Node,
        target: Address,
        *,
        rate: float,
        qname: Name | str = "www.foo.com",
        fixed_source: Address | None = None,
        carry_invalid_cookie: bool = False,
    ):
        """``rate`` is requests/sec.  Sources are :func:`random_sources`
        draws, or pinned to ``fixed_source``.

        ``carry_invalid_cookie`` attaches a garbage modified-DNS cookie to
        every request — the Figure 6 attacker, whose forged requests fail
        the guard's cheapest check and are dropped on the floor.
        """
        if rate <= 0:
            raise ValueError("attack rate must be positive")
        self.node = node
        self.target = parse_address(target)
        self.rate = rate
        self.qname = Name.from_text(qname) if isinstance(qname, str) else qname
        self.fixed_source = None if fixed_source is None else parse_address(fixed_source)
        self.packets_sent = 0
        self._carry = 0.0
        self._running = False
        self._template = make_query(self.qname, msg_id=0xDEAD)
        if carry_invalid_cookie:
            from ..dnswire import attach_cookie

            attach_cookie(self._template, b"\x42" * 16)
        # a template sender: every packet of the flood carries the one frozen
        # message, at the size measured from its wire here
        self._payload = self._template.freeze()
        self._size = IP_HEADER_BYTES + UDP_HEADER_BYTES + self._payload.wire_size()
        self._sport = 40000

    def start(self) -> None:
        self._running = True
        self._emit_batch()

    def stop(self) -> None:
        self._running = False

    def _emit_batch(self) -> None:
        if not self._running:
            return
        sim = self.node.sim
        quota = self.rate * BATCH_INTERVAL + self._carry
        count = int(quota)
        self._carry = quota - count
        # spread the batch evenly across the interval so the flood is a
        # steady stream, not a synchronized millisecond burst
        spacing = BATCH_INTERVAL / count if count else 0.0
        # what schedule(delay) computes, to the bit, without its frame
        now = sim.now
        fixed = self.fixed_source
        sources = random_sources(sim.rng, count) if fixed is None else [fixed] * count
        target, payload, size = self.target, self._payload, self._size
        schedule_at, send_one, sport = sim.schedule_at, self._send_one, self._sport
        for i, source in enumerate(sources):
            # positional: a keyword call builds a dict per packet
            packet = Packet(source, target, UdpDatagram(sport, 53, payload), INITIAL_TTL, None, size)
            sport = 40000 + (sport - 39999) % 20000
            schedule_at(now + i * spacing, send_one, packet)
        self._sport = sport
        sim.schedule_at(now + BATCH_INTERVAL, self._emit_batch)

    def _send_one(self, packet: Packet) -> None:
        try:
            self.node.send(packet)
            self.packets_sent += 1
        except Exception:  # noqa: BLE001 - unroutable spoof targets  # repro: allow[W001]
            pass
