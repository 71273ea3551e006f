"""Packets: IP carrying either a UDP datagram or a TCP segment.

A UDP datagram's payload is the :class:`~repro.dnswire.Message` or the
``bytes`` a socket sent, and the same object reaches the receiving handler:
DNS travels by reference, so nothing on the UDP path ever decodes a byte.
The wire codec still defines each packet's size, and :attr:`Packet._size`
is its one memo.  A sender that knows the size sets it at construction (a
template sender measures its frozen template once, ``UdpSocket.send``
passes its ``size=`` override); otherwise the first ``Link.transmit``
measures ``len()`` of the bytes or the message's ``wire_size()``, and later
hops and a duplicated twin read the memo.  Producers that send one shape
many times derive each message from a frozen prototype
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
from typing import Union

from ..dnswire import Message
from .address import format_address

IP_HEADER_BYTES = 20
UDP_HEADER_BYTES = 8
TCP_HEADER_BYTES = 20
#: a packet's ``ttl`` as its sender sets it
INITIAL_TTL = 64


@dataclasses.dataclass(slots=True)
class UdpDatagram:
    """A UDP datagram.  ``payload`` is a DNS ``Message`` or raw ``bytes``
    (junk floods, probes); readers tell them apart by ``type(payload) is
    bytes``."""

    sport: int
    dport: int
    payload: Message | bytes


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
    Both addresses are 32-bit ints (``repro.netsim.address``).

    ``ttl`` starts at the sender's initial value and is decremented at each
    router hop; defence baselines like hop-count filtering read it.
    """

    src: int
    dst: int
    segment: Segment
    ttl: int = INITIAL_TTL
    #: Observability span that originated this packet (see repro.obs).
    #: Pure metadata: excluded from trace_digest and never read by the
    #: simulation itself, so carrying a span cannot alter behaviour.
    span: object | None = None
    #: ``size``, given by a sender that knows it or measured by the first
    #: ``Link.transmit``; later hops and a duplicated twin read it.  A packet
    #: is never edited after it is built, bar its ``ttl``.
    _size: int | None = dataclasses.field(default=None, repr=False, compare=False)

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
                body = len(payload) if type(payload) is bytes else payload.wire_size()
                size = IP_HEADER_BYTES + UDP_HEADER_BYTES + body
            self._size = size
        return size

    @property
    def protocol(self) -> str:
        return "udp" if isinstance(self.segment, UdpDatagram) else "tcp"

    def __repr__(self) -> str:
        src, dst = format_address(self.src), format_address(self.dst)
        return f"Packet({src}->{dst} {self.protocol} {self.size}B)"

    def with_message(
        self,
        message: Message,
        *,
        src: int | None = None,
        dst: int | None = None,
        sport: int | None = None,
        dport: int | None = None,
    ) -> "Packet":
        """A fresh UDP packet (initial TTL) carrying ``message`` on this
        packet's flow — same addresses and ports unless overridden — and
        its span, so a middlebox rewrite stays on the query's trace."""
        datagram = self.segment
        # positional: a keyword call builds a dict per packet
        return Packet(
            self.src if src is None else src,
            self.dst if dst is None else dst,
            UdpDatagram(
                datagram.sport if sport is None else sport,
                datagram.dport if dport is None else dport,
                message,
            ),
            INITIAL_TTL,
            self.span,
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
            body = self.size - IP_HEADER_BYTES - UDP_HEADER_BYTES
            if type(payload) is bytes:
                detail = f"raw:{body}"
            else:
                detail = f"dns:{payload.header.msg_id}:{body}"
            seg_text = f"udp:{seg.sport}>{seg.dport}:{detail}"
        else:
            seg_text = (
                f"tcp:{seg.sport}>{seg.dport}:s{seg.seq}:a{seg.ack}"
                f":f{int(seg.flags)}:{len(seg.data)}"
            )
        src, dst = format_address(self.src), format_address(self.dst)
        return f"pkt[{src}>{dst}:ttl{self.ttl}:{seg_text}]"
