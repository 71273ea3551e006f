"""Packets: IP carrying either a UDP datagram or a TCP segment.

DNS payloads travel by reference as :class:`~repro.dnswire.Message` objects,
so nothing on the UDP path ever decodes a byte.  The wire codec still defines
each packet's size: ``size`` is the length of the message's encoding, read
on the first link and memoised on the payload (which packets may share) and
on the packet, for later hops.  Producers
that send one shape many times derive each message from a frozen prototype
(``Message.with_header``, ``dnswire.with_cookie``/``without_cookie``, the
guard's cookie slots), so on the steady paths that length is four (the id
and flags) plus ``len()`` of the wire past them, which the message shares
with its prototype; anything else is encoded once, on that first read, just
to be measured.  Edges that need real bytes (the TCP stream, tests) can ask
for them: a frozen message packs its id and flags in front of that shared
rest.
"""

from __future__ import annotations

import dataclasses
import enum
from ipaddress import IPv4Address
from typing import Union

from ..dnswire import Message

IP_HEADER_BYTES = 20
UDP_HEADER_BYTES = 8
TCP_HEADER_BYTES = 20


class DnsPayload:
    """A DNS message riding in a UDP datagram, with cached wire size."""

    __slots__ = ("message", "_size")

    def __init__(self, message: Message, size: int | None = None):
        self.message = message
        self._size = size

    @property
    def size(self) -> int:
        if self._size is None:
            self._size = self.message.wire_size()
        return self._size

    @property
    def wire(self) -> bytes:
        return self.message.encode()

    def __repr__(self) -> str:
        return f"DnsPayload({self.message.header.msg_id}, {self.size}B)"


class RawPayload:
    """Arbitrary bytes in a UDP datagram (junk floods, probes)."""

    __slots__ = ("data", "_size")

    def __init__(self, data: bytes):
        self.data = data
        self._size = len(data)

    @property
    def size(self) -> int:
        return self._size

    @property
    def wire(self) -> bytes:
        return self.data


@dataclasses.dataclass(slots=True)
class UdpDatagram:
    """A UDP datagram."""

    sport: int
    dport: int
    payload: DnsPayload | RawPayload


class TcpFlags(enum.IntFlag):
    """TCP control flags we model — the public spelling, for anything that
    builds or reads a segment by hand.  ``repro.netsim.tcp`` tests and emits
    the same bits as plain ints: an ``IntFlag`` ``&`` or ``|`` is three
    Python frames in the stdlib's ``enum.py``, and a segment pays a dozen."""

    SYN = 0x02
    ACK = 0x10
    FIN = 0x01
    RST = 0x04


@dataclasses.dataclass(slots=True)
class TcpSegment:
    """A TCP segment carrying a slice of the byte stream."""

    sport: int
    dport: int
    seq: int
    ack: int
    #: ``TcpFlags`` bits; a member and its plain int are interchangeable
    flags: int
    data: bytes = b""

    def has(self, flag: int) -> bool:
        return self.flags & flag != 0


Segment = Union[UdpDatagram, TcpSegment]


@dataclasses.dataclass(slots=True)
class Packet:
    """An IPv4 packet.  ``src`` is whatever the sender claims — spoofable.

    ``ttl`` starts at the sender's initial value and is decremented at each
    router hop; defence baselines like hop-count filtering read it.
    """

    src: IPv4Address
    dst: IPv4Address
    segment: Segment
    ttl: int = 64
    #: Observability span that originated this packet (see repro.obs).
    #: Pure metadata: excluded from trace_digest and never read by the
    #: simulation itself, so carrying a span cannot alter behaviour.
    span: object | None = None
    #: ``size`` once measured (by the first ``Link.transmit``); later hops
    #: and a duplicated twin read it.  A packet is never edited after it is
    #: built, bar its ``ttl``.
    _size: int | None = dataclasses.field(default=None, init=False, repr=False, compare=False)

    @property
    def size(self) -> int:
        """Total on-the-wire size in bytes, including the IP and UDP/TCP
        headers, measured in this one frame and memoised."""
        size = self._size
        if size is None:
            segment = self.segment
            if type(segment) is TcpSegment:
                size = IP_HEADER_BYTES + TCP_HEADER_BYTES + len(segment.data)
            else:
                payload = segment.payload
                body = payload._size
                if body is None:  # a DnsPayload not measured yet
                    body = payload._size = payload.message.wire_size()
                size = IP_HEADER_BYTES + UDP_HEADER_BYTES + body
            self._size = size
        return size

    @property
    def protocol(self) -> str:
        return "udp" if isinstance(self.segment, UdpDatagram) else "tcp"

    def __repr__(self) -> str:
        return f"Packet({self.src}->{self.dst} {self.protocol} {self.size}B)"

    def with_message(
        self,
        message: Message,
        *,
        src: IPv4Address | None = None,
        dst: IPv4Address | None = None,
        sport: int | None = None,
        dport: int | None = None,
    ) -> "Packet":
        """A fresh UDP packet (initial TTL) carrying ``message`` on this
        packet's flow — same addresses and ports unless overridden — and
        its span, so a middlebox rewrite stays on the query's trace."""
        datagram = self.segment
        return Packet(
            src=self.src if src is None else src,
            dst=self.dst if dst is None else dst,
            segment=UdpDatagram(
                datagram.sport if sport is None else sport,
                datagram.dport if dport is None else dport,
                DnsPayload(message),
            ),
            span=self.span,
        )

    def trace_digest(self) -> str:
        """Deterministic, id-free fingerprint for determinism event traces.

        Captures addressing, ports and payload identity without touching
        ``repr`` of payload objects (whose default representations embed
        memory addresses that vary across runs).
        """
        seg = self.segment
        if isinstance(seg, UdpDatagram):
            payload = seg.payload
            if isinstance(payload, DnsPayload):
                detail = f"dns:{payload.message.header.msg_id}:{payload.size}"
            else:
                detail = f"raw:{payload.size}"
            seg_text = f"udp:{seg.sport}>{seg.dport}:{detail}"
        else:
            seg_text = (
                f"tcp:{seg.sport}>{seg.dport}:s{seg.seq}:a{seg.ack}"
                f":f{int(seg.flags)}:{len(seg.data)}"
            )
        return f"pkt[{self.src}>{self.dst}:ttl{self.ttl}:{seg_text}]"
