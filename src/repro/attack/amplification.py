"""Reflection/amplification attack and measurement (paper §I, §III.G).

The attacker crafts small requests whose responses are much larger (e.g. a
query for a name with many TXT records) and spoofs the victim's address, so
the ANS amplifies the attacker's bandwidth at the victim.  The meter sits
on the victim's node and accounts the reflected bytes, giving the
amplification ratio the paper bounds at <50% for the DNS-based scheme and
0% for the others (Table I).
"""

from __future__ import annotations


from ..dnswire import Message, Name, RRType, make_query
from ..netsim import (
    INITIAL_TTL,
    IP_HEADER_BYTES,
    UDP_HEADER_BYTES,
    Address,
    Hook,
    Node,
    Packet,
    UdpDatagram,
    Verdict,
    parse_address,
)
from .spoof import BATCH_INTERVAL


class ReflectionAttacker:
    """Spoofs the victim's source address on amplification-friendly queries."""

    def __init__(
        self,
        node: Node,
        target: Address,
        victim: Address,
        *,
        rate: float,
        qname: Name | str = "big.foo.com",
        qtype: int = RRType.TXT,
        edns_payload: int | None = None,
    ):
        """``edns_payload`` attaches an OPT RR advertising that UDP size —
        the modern amplification trick that lifts the 512-byte response cap."""
        if rate <= 0:
            raise ValueError("attack rate must be positive")
        self.node = node
        self.target = parse_address(target)
        self.victim = parse_address(victim)
        self.rate = rate
        self.qname = Name.from_text(qname) if isinstance(qname, str) else qname
        self.qtype = qtype
        self.packets_sent = 0
        self.bytes_sent = 0
        self._carry = 0.0
        self._running = False
        self._template = make_query(self.qname, self.qtype, msg_id=0xBEEF)
        if edns_payload is not None:
            from ..dnswire import Name as _Name, OPT, ResourceRecord

            self._template.additionals.append(
                ResourceRecord(_Name.root(), RRType.OPT, edns_payload, 0, OPT())
            )
        # a template sender, as SpoofingAttacker: one frozen message, its
        # size measured here
        self._payload = self._template.freeze()
        self._size = IP_HEADER_BYTES + UDP_HEADER_BYTES + self._payload.wire_size()

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
        spacing = BATCH_INTERVAL / count if count else 0.0
        for i in range(count):
            # positional: a keyword call builds a dict per packet
            segment = UdpDatagram(42000, 53, self._payload)
            packet = Packet(self.victim, self.target, segment, INITIAL_TTL, None, self._size)
            sim.schedule(i * spacing, self._send_one, packet)
        sim.schedule(BATCH_INTERVAL, self._emit_batch)

    def _send_one(self, packet: Packet) -> None:
        try:
            self.node.send(packet)
        except Exception:  # noqa: BLE001 - unroutable targets vanish
            return
        self.packets_sent += 1
        self.bytes_sent += packet.size


class VictimMeter:
    """Counts reflected DNS traffic arriving at the victim's node."""

    def __init__(self, node: Node):
        self.node = node
        self.packets_received = 0
        self.bytes_received = 0
        node.filters.append(Hook.LOCAL_IN, target=self._observe)

    def _observe(self, packet: Packet) -> Verdict:
        segment = packet.segment
        if isinstance(segment, UdpDatagram) and segment.sport == 53:
            self.packets_received += 1
            self.bytes_received += packet.size
        return Verdict.ACCEPT

    def amplification_ratio(self, attacker: ReflectionAttacker) -> float:
        """Bytes at the victim / bytes the attacker spent, at the IP level."""
        if attacker.bytes_sent == 0:
            return 0.0
        return self.bytes_received / attacker.bytes_sent
