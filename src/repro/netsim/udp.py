"""UDP sockets.

UDP here mirrors the real thing in the one way that matters to the paper:
``send`` takes an arbitrary source address and nothing checks it.  That is
the spoofing vulnerability the DNS guard exists to detect.
"""

from __future__ import annotations

from ipaddress import IPv4Address
from typing import TYPE_CHECKING, Callable

from ..dnswire import Message
from .errors import SocketError
from .packet import DnsPayload, Packet, RawPayload, UdpDatagram

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .node import Node

#: First ephemeral port handed out by :meth:`UdpStack.ephemeral_port`.
EPHEMERAL_BASE = 49152

#: Handler signature: (payload, src_ip, src_port, dst_ip).
UdpHandler = Callable[[Message | bytes, IPv4Address, int, IPv4Address], None]


class UdpSocket:
    """A bound UDP socket."""

    # ephemeral sockets are created per interaction on the load-generator
    # hot path; __slots__ keeps them __dict__-free (P001)
    __slots__ = ("stack", "ip", "port", "handler", "closed")

    def __init__(self, stack: "UdpStack", ip: IPv4Address | None, port: int, handler: UdpHandler):
        self.stack = stack
        self.ip = ip
        self.port = port
        self.handler = handler
        self.closed = False

    def send(
        self,
        payload: Message | bytes,
        dst: IPv4Address,
        dport: int,
        *,
        src: IPv4Address | None = None,
        size: int | None = None,
        span=None,
    ) -> bool:
        """Send a datagram.  ``src`` may be spoofed — nothing validates it.

        ``span`` is observability metadata carried on the packet (never
        read by the simulation) so receive-side spans can parent onto it.
        """
        if self.closed:
            raise SocketError("send on closed socket")
        return self.stack.send(
            payload, dst, dport, sport=self.port, src=src or self.ip, size=size,
            span=span,
        )

    def close(self) -> None:
        self.closed = True
        self.stack._unbind(self)

    def __repr__(self) -> str:
        return f"UdpSocket({self.ip or '*'}:{self.port})"


class UdpStack:
    """Per-node UDP socket table and demultiplexer."""

    def __init__(self, node: "Node"):
        self.node = node
        self._sockets: dict[tuple[IPv4Address | None, int], UdpSocket] = {}
        self._next_ephemeral = EPHEMERAL_BASE
        self.datagrams_received = 0
        self.datagrams_unmatched = 0

    # -- binding -------------------------------------------------------------

    def bind(self, port: int, handler: UdpHandler, *, ip: IPv4Address | None = None) -> UdpSocket:
        """Bind ``port`` (optionally to one address; ``None`` = wildcard)."""
        key = (ip, port)
        if key in self._sockets:
            raise SocketError(f"{self.node.name}: UDP port {port} already bound")
        sock = UdpSocket(self, ip, port, handler)
        self._sockets[key] = sock
        return sock

    def ephemeral_port(self) -> int:
        """The next ephemeral port, in rotation, with no wildcard socket on
        it: one still open when the counter comes round keeps its port."""
        for _ in range(EPHEMERAL_BASE, 65536):
            port = self._next_ephemeral
            self._next_ephemeral = port + 1 if port < 65535 else EPHEMERAL_BASE
            if (None, port) not in self._sockets:
                return port
        raise SocketError(f"{self.node.name}: every ephemeral UDP port is bound")

    def bind_ephemeral(self, handler: UdpHandler) -> UdpSocket:
        """A wildcard socket on :meth:`ephemeral_port`."""
        return self.bind(self.ephemeral_port(), handler)

    def _unbind(self, sock: UdpSocket) -> None:
        self._sockets.pop((sock.ip, sock.port), None)

    # -- data path -------------------------------------------------------------

    def send(
        self,
        payload: Message | bytes,
        dst: IPv4Address,
        dport: int,
        *,
        sport: int,
        src: IPv4Address | None = None,
        size: int | None = None,
        span=None,
    ) -> bool:
        """Build and transmit a UDP packet from this node.

        ``size`` overrides the computed payload size (useful when modelling
        padded or malformed attack traffic without building real bytes).
        """
        if isinstance(payload, Message):
            body: DnsPayload | RawPayload = DnsPayload(payload, size)
        elif isinstance(payload, (bytes, bytearray)):
            body = RawPayload(bytes(payload))
        else:
            raise SocketError(f"unsupported UDP payload type {type(payload)!r}")
        packet = Packet(
            src=src or self.node.address,
            dst=dst,
            segment=UdpDatagram(sport=sport, dport=dport, payload=body),
            # NULL_SPAN (falsy) is normalised away so receivers take their
            # span-free fast path once the span log is at capacity
            span=span if span else None,
        )
        return self.node.send(packet)

    def demux(self, packet: Packet, datagram: UdpDatagram) -> None:
        """Deliver an arriving datagram to the best-matching socket."""
        self.datagrams_received += 1
        sock = self._sockets.get((packet.dst, datagram.dport)) or self._sockets.get(
            (None, datagram.dport)
        )
        if sock is None or sock.closed:
            self.datagrams_unmatched += 1
            return
        payload = datagram.payload
        data: Message | bytes
        data = payload.message if isinstance(payload, DnsPayload) else payload.data
        obs = self.node.sim.obs
        if obs is None or packet.span is None:
            sock.handler(data, packet.src, datagram.sport, packet.dst)
            return
        # Expose the sender's span as ambient context for the duration of
        # the handler so receive-side instrumentation can parent onto it
        # without changing any handler signature.
        previous = obs._inbound_span
        obs._inbound_span = packet.span
        try:
            sock.handler(data, packet.src, datagram.sport, packet.dst)
        finally:
            obs._inbound_span = previous
