"""Packet tracing: a tcpdump for the simulated network.

A :class:`PacketTracer` taps the links of one node — or several — and
records every packet that crosses them.  Captures can be narrowed with
src/dst/protocol filters (or an arbitrary predicate) and bounded with
``max_records`` so tracing a long attack run cannot grow memory without
limit; packets past the cap are counted in ``truncated``, not stored.

Used by tests and experiments to verify, for example, the paper's §IV.D
packet-count arithmetic — a cache-hit exchange really is 4 packets at
the guard, a cache miss 6, the fabricated variant 8.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Iterable

from .address import Address, format_address, parse_address
from .link import Link
from .node import Node
from .packet import Packet, TcpSegment, UdpDatagram


@dataclasses.dataclass(slots=True)
class TraceRecord:
    """One captured packet (addresses as ints, printed dotted)."""

    time: float
    src: int
    dst: int
    protocol: str
    size: int
    sport: int
    dport: int
    info: str

    def __str__(self) -> str:
        return (
            f"{self.time * 1000:9.3f}ms {format_address(self.src)}:{self.sport} > "
            f"{format_address(self.dst)}:{self.dport} {self.protocol} {self.size}B {self.info}"
        )


def _describe(packet: Packet) -> tuple[int, int, str]:
    segment = packet.segment
    if isinstance(segment, UdpDatagram):
        message = segment.payload
        if type(message) is not bytes:
            kind = "query" if message.is_query() else "response"
            qname = str(message.question.qname) if message.questions else "?"
            return segment.sport, segment.dport, f"DNS {kind} {qname}"
        return segment.sport, segment.dport, "UDP data"
    assert isinstance(segment, TcpSegment)
    flags = []
    from .packet import TcpFlags

    for flag in (TcpFlags.SYN, TcpFlags.ACK, TcpFlags.FIN, TcpFlags.RST):
        if segment.has(flag):
            flags.append(flag.name)
    label = "/".join(flags) or "DATA"
    if segment.data:
        label += f"+{len(segment.data)}B"
    return segment.sport, segment.dport, f"TCP {label}"


class PacketTracer:
    """Captures packets crossing the tapped nodes' links (both directions).

    ``nodes`` may be a single :class:`Node` or an iterable of nodes; a
    link shared by two tapped nodes is tapped once.  Installed by wrapping
    each link's ``transmit``; captures therefore see exactly what the wire
    sees, including retransmissions, and drops at the link layer are
    recorded as sent-by-the-origin attempts.

    Filters (all optional, all AND-ed):

    * ``src`` / ``dst`` — match the packet's claimed source / destination;
    * ``protocol`` — ``"udp"`` or ``"tcp"``;
    * ``filter_fn`` — arbitrary ``Packet -> bool`` predicate.

    With ``max_records`` set, packets matching the filters once the store
    is full are counted in ``truncated`` instead of recorded.
    """

    def __init__(
        self,
        nodes: Node | Iterable[Node],
        *,
        filter_fn: Callable[[Packet], bool] | None = None,
        src: Address | None = None,
        dst: Address | None = None,
        protocol: str | None = None,
        max_records: int | None = None,
    ):
        if isinstance(nodes, Node):
            node_list = [nodes]
        else:
            node_list = list(nodes)
        if not node_list:
            raise ValueError("PacketTracer needs at least one node to tap")
        if protocol is not None and protocol not in ("udp", "tcp"):
            raise ValueError(f"unknown protocol filter {protocol!r}")
        if max_records is not None and max_records < 0:
            raise ValueError("max_records must be non-negative")
        self.nodes = node_list
        #: First tapped node — kept for single-node back-compat.
        self.node = node_list[0]
        self.filter_fn = filter_fn
        #: the address filters as the integers packets carry
        self.src = None if src is None else parse_address(src)
        self.dst = None if dst is None else parse_address(dst)
        self.protocol_filter = protocol
        self.max_records = max_records
        self.records: list[TraceRecord] = []
        #: Packets that matched the filters but were not stored (at cap).
        self.truncated = 0
        self._originals: list[tuple[Link, Callable]] = []
        seen: set[int] = set()
        for node in node_list:
            for link in node.links:
                if id(link) in seen:
                    continue
                seen.add(id(link))
                self._tap(link)

    def _matches(self, packet: Packet) -> bool:
        if self.src is not None and packet.src != self.src:
            return False
        if self.dst is not None and packet.dst != self.dst:
            return False
        if self.protocol_filter is not None and packet.protocol != self.protocol_filter:
            return False
        if self.filter_fn is not None and not self.filter_fn(packet):
            return False
        return True

    def _tap(self, link: Link) -> None:
        original = link.transmit

        def tapped(packet: Packet, sender: Node, _original=original, _link=link) -> bool:
            if self._matches(packet):
                if self.max_records is not None and len(self.records) >= self.max_records:
                    self.truncated += 1
                else:
                    sport, dport, info = _describe(packet)
                    self.records.append(
                        TraceRecord(
                            time=_link.sim.now,
                            src=packet.src,
                            dst=packet.dst,
                            protocol=packet.protocol,
                            size=packet.size,
                            sport=sport,
                            dport=dport,
                            info=info,
                        )
                    )
            return _original(packet, sender)

        link.transmit = tapped  # type: ignore[method-assign]
        self._originals.append((link, original))

    def detach(self) -> None:
        """Remove the taps, restoring the links' original transmit."""
        for link, original in self._originals:
            link.transmit = original  # type: ignore[method-assign]
        self._originals.clear()

    # -- analysis helpers -----------------------------------------------------

    def clear(self) -> None:
        self.records.clear()
        self.truncated = 0

    def __len__(self) -> int:
        return len(self.records)

    def packets(self, *, protocol: str | None = None) -> list[TraceRecord]:
        if protocol is None:
            return list(self.records)
        return [r for r in self.records if r.protocol == protocol]

    def between(self, a: Address, b: Address) -> list[TraceRecord]:
        """Packets exchanged between two addresses, either direction."""
        a, b = parse_address(a), parse_address(b)
        return [
            r
            for r in self.records
            if (r.src == a and r.dst == b) or (r.src == b and r.dst == a)
        ]

    def total_bytes(self) -> int:
        return sum(r.size for r in self.records)

    def dump(self) -> str:
        lines = [str(r) for r in self.records]
        if self.truncated:
            lines.append(f"... {self.truncated} packets not captured (max_records cap)")
        return "\n".join(lines)
