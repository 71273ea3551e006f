"""Spoofing-based DoS attackers (paper §I: the first attack strategy).

The attacker blasts UDP DNS requests at the protected server with forged
source addresses.  Packets are emitted in per-millisecond batches so the
simulator can sustain the paper's 250K requests/sec attack rates.
"""

from __future__ import annotations

from ipaddress import IPv4Address
from typing import Callable

from ..dnswire import Message, Name, make_query
from ..netsim import DnsPayload, Node, Packet, UdpDatagram

#: How often the attacker wakes up to emit a batch of packets.
BATCH_INTERVAL = 0.001


def random_source(rng) -> IPv4Address:
    """A uniformly random, non-reserved-looking spoofed source address."""
    return IPv4Address((rng.getrandbits(32) % 0xDFFFFFFF) | 0x01000000)


class SpoofingAttacker:
    """Open-loop spoofed-source UDP query flood."""

    def __init__(
        self,
        node: Node,
        target: IPv4Address,
        *,
        rate: float,
        qname: Name | str = "www.foo.com",
        source_strategy: Callable[[object], IPv4Address] | None = None,
        fixed_source: IPv4Address | None = None,
        carry_invalid_cookie: bool = False,
    ):
        """``rate`` is requests/sec.  Sources come from ``source_strategy``
        (default: uniformly random) or are pinned to ``fixed_source``.

        ``carry_invalid_cookie`` attaches a garbage modified-DNS cookie to
        every request — the Figure 6 attacker, whose forged requests fail
        the guard's cheapest check and are dropped on the floor.
        """
        if rate <= 0:
            raise ValueError("attack rate must be positive")
        self.node = node
        self.target = target
        self.rate = rate
        self.qname = Name.from_text(qname) if isinstance(qname, str) else qname
        if fixed_source is not None:
            self.source_strategy = lambda rng: fixed_source
        else:
            self.source_strategy = source_strategy or random_source
        self.packets_sent = 0
        self._carry = 0.0
        self._running = False
        self._template = make_query(self.qname, msg_id=0xDEAD)
        if carry_invalid_cookie:
            from ..dnswire import attach_cookie

            attach_cookie(self._template, b"\x42" * 16)
        # a template sender: every packet of the flood carries the one frozen
        # message in the one payload, sized from its wire on the first send
        self._payload = DnsPayload(self._template.freeze())
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
        for i in range(count):
            packet = Packet(
                src=self.source_strategy(sim.rng),
                dst=self.target,
                segment=UdpDatagram(
                    sport=self._sport,
                    dport=53,
                    payload=self._payload,
                ),
            )
            self._sport = 40000 + (self._sport - 39999) % 20000
            sim.schedule(i * spacing, self._send_one, packet)
        sim.schedule(BATCH_INTERVAL, self._emit_batch)

    def _send_one(self, packet: Packet) -> None:
        try:
            self.node.send(packet)
            self.packets_sent += 1
        except Exception:  # noqa: BLE001 - unroutable spoof targets  # repro: allow[W001]
            pass
