"""UDP sockets.

UDP here mirrors the real thing in the one way that matters to the paper:
``send`` takes an arbitrary source address and nothing checks it.  That is
the spoofing vulnerability the DNS guard exists to detect.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from ..dnswire import Message
from .address import Address, address_args, format_address, parse_address
from .errors import SocketError
from .packet import IP_HEADER_BYTES, INITIAL_TTL, UDP_HEADER_BYTES, Packet, UdpDatagram

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .node import Node

#: First ephemeral port handed out by :meth:`UdpStack.ephemeral_port`.
EPHEMERAL_BASE = 49152

#: Handler signature: (payload, src_ip, src_port, dst_ip), addresses as ints.
UdpHandler = Callable[[Message | bytes, int, int, int], None]


class UdpSocket:
    """A bound UDP socket."""

    # ephemeral sockets are created per interaction on the load-generator
    # hot path; __slots__ keeps them __dict__-free
    __slots__ = ("stack", "ip", "port", "handler", "closed")

    def __init__(self, stack: "UdpStack", ip: int | None, port: int, handler: UdpHandler):
        self.stack = stack
        self.ip = ip
        self.port = port
        self.handler = handler
        self.closed = False

    @address_args(1)
    def send(
        self,
        payload: Message | bytes,
        dst: Address,
        dport: int,
        *,
        src: Address | None = None,
        size: int | None = None,
        span=None,
    ) -> bool:
        """Build and transmit a UDP datagram from this socket's node.
        ``src`` may be spoofed — nothing validates it.

        ``size`` overrides the computed payload size (useful when modelling
        padded or malformed attack traffic without building real bytes).
        ``span`` is observability metadata carried on the packet (never
        read by the simulation) so receive-side spans can parent onto it.
        An int address (what the simulator passes) is taken as is.
        """
        if self.closed:
            raise SocketError("send on closed socket")
        if type(payload) is not Message and type(payload) is not bytes:
            if isinstance(payload, (bytes, bytearray)):
                payload = bytes(payload)  # readers test for exactly bytes
            elif not isinstance(payload, Message):
                raise SocketError(f"unsupported UDP payload type {type(payload)!r}")
        node = self.stack.node
        if src is None:
            src = self.ip
            if src is None:
                src = node.address
        elif type(src) is not int:
            src = parse_address(src)
        if type(dst) is not int:
            dst = parse_address(dst)
        if size is not None:
            size += IP_HEADER_BYTES + UDP_HEADER_BYTES
        # positional: a keyword call builds a dict per packet.  NULL_SPAN
        # (falsy) is normalised away so receivers take their span-free fast
        # path once the span log is at capacity
        segment = UdpDatagram(self.port, dport, payload)
        return node.send(Packet(src, dst, segment, INITIAL_TTL, span or None, size))

    def close(self) -> None:
        """Unbind the socket and drop its handler (a reply handler that
        closes its socket would otherwise keep a socket -> handler -> socket
        cycle for the cyclic collector); closing it again is a no-op."""
        if self.closed:
            return
        self.closed = True
        self.stack._unbind(self)
        self.handler = None

    def __repr__(self) -> str:
        ip = "*" if self.ip is None else format_address(self.ip)
        return f"UdpSocket({ip}:{self.port})"


class UdpStack:
    """Per-node UDP socket table and demultiplexer."""

    def __init__(self, node: "Node"):
        self.node = node
        #: keyed on ``(ip, port)`` ints, ``ip`` None for a wildcard
        self._sockets: dict[tuple[int | None, int], UdpSocket] = {}
        self._next_ephemeral = EPHEMERAL_BASE
        self.datagrams_received = 0
        self.datagrams_unmatched = 0

    # -- binding -------------------------------------------------------------

    def bind(self, port: int, handler: UdpHandler, *, ip: Address | None = None) -> UdpSocket:
        """Bind ``port`` (optionally to one address; ``None`` = wildcard)."""
        key = (None if ip is None else parse_address(ip), port)
        if key in self._sockets:
            raise SocketError(f"{self.node.name}: UDP port {port} already bound")
        sock = UdpSocket(self, key[0], port, handler)
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
        """A wildcard socket on :meth:`ephemeral_port` (free: :meth:`bind`'s check skipped)."""
        port = self.ephemeral_port()
        sock = self._sockets[(None, port)] = UdpSocket(self, None, port, handler)
        return sock

    def _unbind(self, sock: UdpSocket) -> None:
        # only its own entry: the port may have been bound again since
        key = (sock.ip, sock.port)
        if self._sockets.get(key) is sock:
            del self._sockets[key]

    # -- data path -------------------------------------------------------------

    def demux(self, packet: Packet, datagram: UdpDatagram) -> None:
        """Deliver an arriving datagram to the best-matching socket."""
        self.datagrams_received += 1
        sockets = self._sockets
        dport = datagram.dport
        sock = sockets.get((packet.dst, dport)) or sockets.get((None, dport))
        if sock is None or sock.closed:
            self.datagrams_unmatched += 1
            return
        data = datagram.payload
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
