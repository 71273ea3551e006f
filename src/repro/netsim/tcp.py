"""A compact but real TCP: handshake, SYN cookies, reliable byte stream.

The TCP-based guard scheme (paper §III.C) rests on two properties of real
TCP that this implementation reproduces faithfully:

* the three-way handshake echoes the server's initial sequence number, so a
  spoofing client never completes a connection — the ISN *is* the cookie;
* with SYN cookies enabled the listener keeps **no state** for half-open
  connections: the ISN is a keyed hash of the 4-tuple, validated when the
  final ACK arrives.

The data path is deliberately simple — fixed MSS, cumulative ACKs, one
retransmission timer per connection, in-order-only receive — but it is a
real reliable stream: segments lost to CPU overload or link loss are
retransmitted, which is how the TCP proxy's throughput degrades (rather
than collapses) under the UDP floods of Figure 7(b).
"""

from __future__ import annotations

import enum
import hashlib
import struct
from collections import OrderedDict
from ipaddress import IPv4Address
from typing import TYPE_CHECKING, Callable

from .address import bind_key
from .errors import ConnectionError_, RoutingError, SocketError
from .packet import Packet, TcpFlags, TcpSegment

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .node import Node

#: Maximum segment size for data segments (Ethernet-ish).
MSS = 1460

#: Retransmission timeout (seconds), its exponential-backoff ceiling, and
#: the default retransmission budget.  Once ``max_retransmits`` consecutive
#: timeouts fire with no forward progress the connection aborts — a dead or
#: blackholed peer costs bounded time and zero permanent state, which is
#: what lets the resolver's TCP fallback fail fast instead of hanging.
DEFAULT_RTO = 0.25
MAX_RTO = 4.0
MAX_RETRANSMITS = 6

#: How many unacknowledged segments a sender may have in flight.
SEND_WINDOW_SEGMENTS = 32

#: How long a cleanly-closed connection's 4-tuple is remembered (TIME_WAIT
#: stand-in).  Old duplicates — reordered ACKs, duplicated FINs — arriving
#: after teardown are swallowed instead of falling through to a listener,
#: where a SYN-cookie validator would miscount them as forged ACKs.
TIME_WAIT_LINGER = 1.0

#: A connection's 4-tuple as the tables key it: ``(local, lport, remote,
#: rport)`` with each address as its 32-bit integer, read from the stdlib's
#: ``_ip`` slot.  The stdlib hashes an ``IPv4Address`` in Python and an int
#: in C, and every segment looks its connection up; addresses stay
#: ``IPv4Address`` everywhere else (``local_ip``/``remote_ip``, the cookie's
#: ``.packed``).  ``tests/property/test_routing_tables.py`` pins the slot.
ConnKey = tuple[int, int, int, int]

#: The flag bits as plain ints — what the segment path tests and emits
#: (see :class:`~repro.netsim.packet.TcpFlags`, the public spelling).
FIN = int(TcpFlags.FIN)
SYN = int(TcpFlags.SYN)
RST = int(TcpFlags.RST)
ACK = int(TcpFlags.ACK)

#: Trust boundary for the flow analyser (``repro.analysis.flow``).  T001
#: treats inbound segments as tainted until they pass an ISN comparison
#: (``iss`` reads and the SYN-cookie recomputation are the registered
#: evidence), so no connection reaches ``on_connection`` without the peer
#: echoing the ISN.  The dynamic half is in ``tests/netsim/test_tcp.py``
#: (``TestSynRcvdIsnCheck``, ``TestSynCookies``).
__trust_boundary__ = {
    "scheme": "tcp-handshake",
    "entry_points": ["TcpConnection.handle", "TcpStack._process"],
    "taint_params": ["segment", "packet"],
    "sanitizers": ["_syn_cookie"],
    "sanitizer_attrs": ["iss"],
    "sinks": ["on_connection"],
    "assumes": (
        "segment fields are attacker-writable (spoofed sources); the ISN "
        "echo is the only admissible proof of address (§III.C)"
    ),
}

#: State-bound declaration for the memory analyser
#: (``repro.analysis.memory``).  A spoofed SYN flood addresses both
#: tables directly (the 4-tuple key is attacker-chosen), so the
#: connection table admits through a capped ``_admit`` — full table ==
#: SYN-queue overflow, the exact state SYN cookies exist to avoid — and
#: TIME_WAIT displaces its oldest entry once the purge can free nothing.
#: The table is insertion-ordered and position order is expiry order, so
#: purge and displacement both pop from the head: amortised O(1) per
#: close at the cap, never a pass over the table.
__state_bounds__ = {
    "TcpStack": {
        "connections": {
            "bound": 65536,
            "evicted_by": "lifecycle+cap",
            "keyed_by": "attacker",
        },
        "_time_wait": {"bound": 8192, "evicted_by": "cap", "keyed_by": "attacker"},
        "_listeners": {"bound": 64, "evicted_by": "lifecycle", "keyed_by": "config"},
    },
}

#: Hard cap on concurrent connections per stack.  Reaching it refuses
#: new admissions (active opens raise, passive SYNs are silently
#: ignored) rather than growing without bound — the non-cookie listener
#: otherwise hands a SYN flood one TcpConnection per spoofed source.
MAX_CONNECTIONS = 65536

#: Hard cap on remembered TIME_WAIT 4-tuples.
TIME_WAIT_CAP = 8192

#: First ephemeral port handed out by :meth:`TcpStack.connect`.
EPHEMERAL_BASE = 32768


class TcpState(enum.Enum):
    CLOSED = "closed"
    LISTEN = "listen"
    SYN_SENT = "syn-sent"
    SYN_RCVD = "syn-rcvd"
    ESTABLISHED = "established"
    FIN_WAIT_1 = "fin-wait-1"
    FIN_WAIT_2 = "fin-wait-2"
    CLOSE_WAIT = "close-wait"
    LAST_ACK = "last-ack"


class Listener:
    """A passive TCP endpoint, optionally protected by SYN cookies."""

    def __init__(
        self,
        stack: "TcpStack",
        ip: IPv4Address | None,
        port: int,
        on_connection: Callable[["TcpConnection"], None],
        *,
        syn_cookies: bool = False,
    ):
        self.stack = stack
        self.ip = ip
        self.port = port
        self.on_connection = on_connection
        self.syn_cookies = syn_cookies
        self.syns_received = 0
        self.cookies_rejected = 0

    def close(self) -> None:
        self.stack._listeners.pop(bind_key(self.ip, self.port), None)


class TcpConnection:
    """One reliable byte-stream connection."""

    # SYN floods create one of these per spoofed segment; __slots__ keeps
    # the per-connection footprint flat
    __slots__ = (
        "stack",
        "local_ip",
        "local_port",
        "remote_ip",
        "remote_port",
        "key",
        "state",
        "iss",
        "snd_una",
        "snd_nxt",
        "rcv_nxt",
        "opened_at",
        "established_at",
        "rtt",
        "rto",
        "max_retransmits",
        "aborted_by_retries",
        "_send_buffer",
        "_inflight",
        "_retransmit_handle",
        "_retransmits",
        "_fin_queued",
        "_fin_sent",
        "bytes_sent",
        "bytes_received",
        "segments_sent",
        "on_established",
        "on_data",
        "on_close",
        "__weakref__",
    )

    def __init__(
        self,
        stack: "TcpStack",
        local_ip: IPv4Address,
        local_port: int,
        remote_ip: IPv4Address,
        remote_port: int,
    ):
        self.stack = stack
        self.local_ip = local_ip
        self.local_port = local_port
        self.remote_ip = remote_ip
        self.remote_port = remote_port
        #: where the stack's tables file this connection
        self.key: ConnKey = (local_ip._ip, local_port, remote_ip._ip, remote_port)
        self.state = TcpState.CLOSED
        self.iss = 0
        self.snd_una = 0
        self.snd_nxt = 0
        self.rcv_nxt = 0
        self.opened_at = stack.node.sim.now
        self.established_at: float | None = None
        self.rtt: float | None = None
        self.rto = DEFAULT_RTO
        #: retransmission budget; inherited from the stack so applications
        #: (e.g. the resolver's TCP fallback) can tighten it per connection
        self.max_retransmits = stack.max_retransmits
        #: True when the connection died from retransmission exhaustion
        self.aborted_by_retries = False
        self._send_buffer = bytearray()
        self._inflight: list[tuple[int, bytes, int]] = []
        self._retransmit_handle = None
        self._retransmits = 0
        self._fin_queued = False
        self._fin_sent = False
        self.bytes_sent = 0
        self.bytes_received = 0
        self.segments_sent = 0
        # application callbacks
        self.on_established: Callable[["TcpConnection"], None] | None = None
        self.on_data: Callable[["TcpConnection", bytes], None] | None = None
        self.on_close: Callable[["TcpConnection", bool], None] | None = None

    # -- public API -----------------------------------------------------------

    def send(self, data: bytes) -> None:
        """Queue application data for reliable delivery."""
        if self.state not in (TcpState.ESTABLISHED, TcpState.CLOSE_WAIT):
            raise ConnectionError_(f"send in state {self.state}")
        if self._fin_queued:
            raise ConnectionError_("send after close")
        self._send_buffer += data
        self._pump()

    def close(self) -> None:
        """Graceful close: FIN goes out after queued data drains."""
        if self.state is TcpState.CLOSED:
            return
        if self._fin_queued:
            return
        self._fin_queued = True
        self._pump()

    def abort(self) -> None:
        """Hard close: send RST and drop all state."""
        if self.state is not TcpState.CLOSED:
            self._emit(RST, seq=self.snd_nxt)
        self._teardown(error=True)

    @property
    def duration(self) -> float:
        """Seconds since the connection was opened (guard reaping policy)."""
        return self.stack.node.sim.now - self.opened_at

    # -- connection setup -------------------------------------------------------

    def _start_active(self) -> None:
        self.iss = self.stack._next_isn()
        self.snd_una = self.iss
        self.snd_nxt = self.iss
        self.state = TcpState.SYN_SENT
        self._emit(SYN, seq=self.iss)
        self._arm_retransmit()

    def _start_passive(self, syn: TcpSegment) -> None:
        self.rcv_nxt = (syn.seq + 1) & 0xFFFFFFFF
        self.iss = self.stack._next_isn()
        self.snd_una = self.iss
        self.snd_nxt = self.iss
        self.state = TcpState.SYN_RCVD
        self._emit(SYN | ACK, seq=self.iss, ack=self.rcv_nxt)
        self._arm_retransmit()

    def _start_from_cookie(self, ack_segment: TcpSegment, cookie_isn: int) -> None:
        """Establish directly from a validated SYN-cookie ACK (no prior state)."""
        self.iss = cookie_isn
        self.snd_una = (cookie_isn + 1) & 0xFFFFFFFF
        self.snd_nxt = self.snd_una
        self.rcv_nxt = ack_segment.seq
        self._established()

    def _established(self) -> None:
        self.state = TcpState.ESTABLISHED
        self.established_at = self.stack.node.sim.now
        self.rtt = self.established_at - self.opened_at
        self._cancel_retransmit()
        if self.on_established:
            self.on_established(self)

    # -- segment processing -------------------------------------------------------

    def handle(self, segment: TcpSegment) -> None:
        flags = segment.flags
        if flags & RST:
            self._teardown(error=True)
            return

        if self.state is TcpState.SYN_SENT:
            if flags & SYN and flags & ACK:
                if segment.ack != (self.iss + 1) & 0xFFFFFFFF:
                    self.abort()
                    return
                self.rcv_nxt = (segment.seq + 1) & 0xFFFFFFFF
                self.snd_una = segment.ack
                self.snd_nxt = segment.ack
                self._emit(ACK, seq=self.snd_nxt, ack=self.rcv_nxt)
                self._established()
                self._pump()
            return

        if self.state is TcpState.SYN_RCVD:
            if flags & ACK and segment.ack == (self.iss + 1) & 0xFFFFFFFF:
                self.snd_una = segment.ack
                self.snd_nxt = segment.ack
                self._established()
                listener = self.stack._listener_for(self.local_ip, self.local_port)
                if listener:
                    listener.on_connection(self)
                # fall through: the ACK may carry data
            else:
                return

        # -- acknowledgements
        if flags & ACK:
            self._process_ack(segment.ack)

        # -- incoming data
        data = segment.data
        if data:
            if segment.seq == self.rcv_nxt:
                self.rcv_nxt = (self.rcv_nxt + len(data)) & 0xFFFFFFFF
                self.bytes_received += len(data)
                self._emit(ACK, seq=self.snd_nxt, ack=self.rcv_nxt)
                if self.on_data:
                    self.on_data(self, data)
            else:
                # duplicate or out-of-order: re-assert our expectation
                self._emit(ACK, seq=self.snd_nxt, ack=self.rcv_nxt)

        # -- FIN processing
        if flags & FIN and segment.seq == self.rcv_nxt:
            self.rcv_nxt = (self.rcv_nxt + 1) & 0xFFFFFFFF
            self._emit(ACK, seq=self.snd_nxt, ack=self.rcv_nxt)
            if self.state is TcpState.ESTABLISHED:
                self.state = TcpState.CLOSE_WAIT
                if self.on_data:
                    self.on_data(self, b"")  # EOF signal
            elif self.state in (TcpState.FIN_WAIT_1, TcpState.FIN_WAIT_2):
                self._teardown(error=False)

    def _process_ack(self, ack: int) -> None:
        # RFC 793: acceptable iff SND.UNA < SEG.ACK =< SND.NXT (mod 2^32).
        # A duplicate is ignored — and so is an ACK for bytes never sent:
        # taking it would empty the window and stop the timer with the
        # peer still missing the data.
        snd_una = self.snd_una
        if not 0 < (ack - snd_una) & 0xFFFFFFFF <= (self.snd_nxt - snd_una) & 0xFFFFFFFF:
            return
        self.snd_una = ack
        # keep only segments not yet fully acknowledged (end > ack)
        self._inflight = [  # the window holds at most SEND_WINDOW_SEGMENTS (32) segments
            (seq, data, flags)
            for seq, data, flags in self._inflight
            if _seq_gt((seq + _seq_span(data, flags)) & 0xFFFFFFFF, ack)
        ]
        self._retransmits = 0
        if self._inflight:
            self._arm_retransmit()
        else:
            self._cancel_retransmit()
            if self.state is TcpState.FIN_WAIT_1 and self._fin_sent:
                self.state = TcpState.FIN_WAIT_2
            elif self.state is TcpState.LAST_ACK and self._fin_sent:
                self._teardown(error=False)
        self._pump()

    # -- transmit machinery -------------------------------------------------------

    def _pump(self) -> None:
        """Move data from the send buffer onto the wire, then FIN if queued."""
        if self.state not in (TcpState.ESTABLISHED, TcpState.CLOSE_WAIT,
                              TcpState.FIN_WAIT_1):
            return
        while self._send_buffer and len(self._inflight) < SEND_WINDOW_SEGMENTS:
            chunk = bytes(self._send_buffer[:MSS])
            del self._send_buffer[:MSS]
            seq = self.snd_nxt
            self.snd_nxt = (self.snd_nxt + len(chunk)) & 0xFFFFFFFF
            self.bytes_sent += len(chunk)
            self._inflight.append((seq, chunk, ACK))
            self._emit(ACK, seq=seq, ack=self.rcv_nxt, data=chunk)
        if self._fin_queued and not self._fin_sent and not self._send_buffer:
            seq = self.snd_nxt
            self.snd_nxt = (self.snd_nxt + 1) & 0xFFFFFFFF
            self._fin_sent = True
            if self.state is TcpState.ESTABLISHED:
                self.state = TcpState.FIN_WAIT_1
            elif self.state is TcpState.CLOSE_WAIT:
                self.state = TcpState.LAST_ACK
            self._inflight.append((seq, b"", FIN | ACK))
            self._emit(FIN | ACK, seq=seq, ack=self.rcv_nxt)
        if self._inflight:
            self._arm_retransmit()

    def _emit(self, flags: int, *, seq: int, ack: int = 0, data: bytes = b"") -> None:
        self.segments_sent += 1
        self.stack._transmit(
            self.local_ip,
            self.remote_ip,
            TcpSegment(self.local_port, self.remote_port, seq, ack, flags, data),
        )

    # -- timers ---------------------------------------------------------------

    def _arm_retransmit(self) -> None:
        handle = self._retransmit_handle
        if handle is not None:
            handle.cancel()
        self._retransmit_handle = self.stack.node.sim.schedule(self.rto, self._on_retransmit)

    def _cancel_retransmit(self) -> None:
        if self._retransmit_handle is not None:
            self._retransmit_handle.cancel()
            self._retransmit_handle = None

    def _on_retransmit(self) -> None:
        self._retransmit_handle = None
        self._retransmits += 1
        if self._retransmits > self.max_retransmits:
            self.aborted_by_retries = True
            self.stack.retry_exhaustions += 1
            self.abort()
            return
        self.rto = min(self.rto * 2, MAX_RTO)
        if self.state is TcpState.SYN_SENT:
            self._emit(SYN, seq=self.iss)
        elif self.state is TcpState.SYN_RCVD:
            self._emit(SYN | ACK, seq=self.iss, ack=self.rcv_nxt)
        elif self._inflight:
            seq, data, flags = self._inflight[0]
            self._emit(flags, seq=seq, ack=self.rcv_nxt, data=data)
        self._arm_retransmit()

    # -- teardown ---------------------------------------------------------------

    def _teardown(self, *, error: bool) -> None:
        already_closed = self.state is TcpState.CLOSED
        self.state = TcpState.CLOSED
        self._cancel_retransmit()
        self._send_buffer.clear()
        self._inflight.clear()
        self.stack._forget(self, linger=not error and self.established_at is not None)
        if not already_closed and self.on_close:
            self.on_close(self, error)

    def __repr__(self) -> str:
        return (
            f"TcpConnection({self.local_ip}:{self.local_port} <-> "
            f"{self.remote_ip}:{self.remote_port} {self.state.value})"
        )


def _seq_gt(a: int, b: int) -> bool:
    """True if sequence number ``a`` is after ``b`` (mod 2^32 arithmetic)."""
    return ((a - b) & 0xFFFFFFFF) < 0x80000000 and a != b


def _seq_span(data: bytes, flags: int) -> int:
    """Sequence-space footprint of a segment: its data, or 1 for SYN/FIN."""
    if data:
        return len(data)
    return 1 if flags & (SYN | FIN) else 0


class TcpStack:
    """Per-node TCP: listeners, connection table, SYN-cookie validation."""

    def __init__(self, node: "Node"):
        self.node = node
        self._listeners: dict[tuple[int | None, int], Listener] = {}
        self.connections: dict[ConnKey, TcpConnection] = {}
        self._isn_counter = 1000
        self._cookie_secret = node.sim.rng.getrandbits(64).to_bytes(8, "big")
        self._next_ephemeral = EPHEMERAL_BASE
        #: Default retransmission budget for connections on this stack.
        self.max_retransmits = MAX_RETRANSMITS
        #: Optional hook: CPU-seconds charged per segment processed or sent,
        #: given the number of open connections (the cost can scale with
        #: table size).
        self.segment_cost_fn: Callable[[int], float] | None = None
        self.segments_received = 0
        self.segments_dropped_cpu = 0
        self.segments_unroutable = 0
        self.cookie_failures = 0
        self.retry_exhaustions = 0
        self.stale_segments = 0
        self.connections_refused = 0
        self._time_wait: OrderedDict[ConnKey, float] = OrderedDict()

    # -- public API ---------------------------------------------------------------

    def listen(
        self,
        port: int,
        on_connection: Callable[[TcpConnection], None],
        *,
        ip: IPv4Address | None = None,
        syn_cookies: bool = False,
    ) -> Listener:
        key = bind_key(ip, port)
        if key in self._listeners:
            raise SocketError(f"{self.node.name}: TCP port {port} already listening")
        listener = Listener(self, ip, port, on_connection, syn_cookies=syn_cookies)
        self._listeners[key] = listener
        return listener

    def connect(
        self,
        dst: IPv4Address,
        dport: int,
        *,
        src: IPv4Address | None = None,
        on_established: Callable[[TcpConnection], None] | None = None,
        on_data: Callable[[TcpConnection, bytes], None] | None = None,
        on_close: Callable[[TcpConnection, bool], None] | None = None,
        max_retransmits: int | None = None,
    ) -> TcpConnection:
        local_ip = src or self.node.address
        local_port = self._ephemeral_port(local_ip, dst, dport)
        conn = TcpConnection(self, local_ip, local_port, dst, dport)
        conn.on_established = on_established
        conn.on_data = on_data
        conn.on_close = on_close
        if max_retransmits is not None:
            conn.max_retransmits = max_retransmits
        if not self._admit(conn):
            raise SocketError(f"{self.node.name}: connection table full")
        conn._start_active()
        return conn

    def reset_all(self, *, send_rst: bool = False) -> None:
        """Tear down every connection — a process crash losing all state.

        With ``send_rst=False`` (a true crash) peers hear nothing and must
        discover the loss through their own retransmission budgets; with
        ``send_rst=True`` each peer gets a RST, as an orderly shutdown or a
        rebooting kernel would produce.
        """
        for conn in list(self.connections.values()):
            if send_rst:
                conn.abort()
            else:
                conn._teardown(error=True)
        self._time_wait.clear()

    # -- demux ---------------------------------------------------------------------

    def demux(self, packet: Packet, segment: TcpSegment) -> None:
        cost_fn = self.segment_cost_fn
        cost = cost_fn(len(self.connections)) if cost_fn else 0.0
        if cost > 0.0:
            if not self.node.cpu.submit(cost, self._process, packet, segment):
                self.segments_dropped_cpu += 1
            return
        self._process(packet, segment)

    def _process(self, packet: Packet, segment: TcpSegment) -> None:
        self.segments_received += 1
        key = (packet.dst._ip, segment.dport, packet.src._ip, segment.sport)
        conn = self.connections.get(key)
        if conn is not None:
            conn.handle(segment)
            return
        flags = segment.flags
        linger_until = self._time_wait.get(key)
        if linger_until is not None:
            if flags & SYN and not flags & ACK:
                del self._time_wait[key]  # a fresh connect reusing the pair
            elif self.node.sim.now < linger_until:
                self.stale_segments += 1  # old duplicate; TIME_WAIT eats it
                return
            else:
                del self._time_wait[key]
        listener = self._listener_for(packet.dst, segment.dport)
        if listener is None:
            return  # silently ignore, as a stealthy host would
        if flags & RST:
            return  # RST for a connection we no longer know about
        if flags & SYN and not flags & ACK:
            listener.syns_received += 1
            if listener.syn_cookies:
                # stateless: SYN-ACK whose ISN is the cookie
                isn = self._syn_cookie(packet.dst, segment.dport, packet.src, segment.sport)
                reply = TcpSegment(
                    segment.dport, segment.sport, isn, (segment.seq + 1) & 0xFFFFFFFF, SYN | ACK
                )
                self._transmit(packet.dst, packet.src, reply)
            else:
                conn = TcpConnection(self, packet.dst, segment.dport, packet.src, segment.sport)
                if self._admit(conn):
                    conn._start_passive(segment)
            return
        if flags & ACK and listener.syn_cookies:
            isn = self._syn_cookie(packet.dst, segment.dport, packet.src, segment.sport)
            if segment.ack == (isn + 1) & 0xFFFFFFFF:
                conn = TcpConnection(self, packet.dst, segment.dport, packet.src, segment.sport)
                if not self._admit(conn):
                    return
                conn._start_from_cookie(segment, isn)
                listener.on_connection(conn)
                if segment.data or flags & FIN:
                    conn.handle(segment)
            elif segment.data or flags & FIN:
                # Handshake completions acknowledge the cookie ISN exactly;
                # a data/FIN segment pointing elsewhere is an old duplicate
                # from a closed connection, not a forged cookie.
                self.stale_segments += 1
            else:
                listener.cookies_rejected += 1
                self.cookie_failures += 1

    # -- internals ---------------------------------------------------------------

    def _listener_for(self, ip: IPv4Address, port: int) -> Listener | None:
        return self._listeners.get((ip._ip, port)) or self._listeners.get((None, port))

    def _transmit(self, src: IPv4Address, dst: IPv4Address, segment: TcpSegment) -> None:
        cost_fn = self.segment_cost_fn
        cost = cost_fn(len(self.connections)) if cost_fn else 0.0
        packet = Packet(src, dst, segment)
        if cost > 0.0:
            if not self.node.cpu.submit(cost, self._send_packet, packet):
                self.segments_dropped_cpu += 1
            return
        self._send_packet(packet)

    def _send_packet(self, packet: Packet) -> None:
        try:
            self.node.send(packet)
        except RoutingError:
            # replying to a spoofed/unroutable peer: the packet just vanishes
            self.segments_unroutable += 1

    def _next_isn(self) -> int:
        self._isn_counter = (self._isn_counter + 64000) & 0xFFFFFFFF
        return self._isn_counter

    def _ephemeral_port(self, local_ip: IPv4Address, dst: IPv4Address, dport: int) -> int:
        """The next ephemeral port, in rotation, whose 4-tuple to
        ``dst:dport`` has no live connection (``_admit`` would replace it)."""
        local, remote = local_ip._ip, dst._ip
        for _ in range(EPHEMERAL_BASE, 65536):
            port = self._next_ephemeral
            self._next_ephemeral = port + 1 if port < 65535 else EPHEMERAL_BASE
            if (local, port, remote, dport) not in self.connections:
                return port
        raise SocketError(f"{self.node.name}: every ephemeral TCP port to {dst}:{dport} is in use")

    def _syn_cookie(self, lip: IPv4Address, lport: int, rip: IPv4Address, rport: int) -> int:
        """Stateless ISN: keyed hash of the 4-tuple (Bernstein's SYN cookie)."""
        material = self._cookie_secret + lip.packed + rip.packed + struct.pack(
            "!HH", lport, rport
        )
        digest = hashlib.md5(material).digest()
        return struct.unpack("!I", digest[:4])[0]

    def _admit(self, conn: TcpConnection) -> bool:
        """Add ``conn`` to the table, refusing once it is full.

        Refusal is the SYN-queue-overflow behaviour: the segment that
        would have created state is treated as never having arrived.
        """
        if len(self.connections) >= MAX_CONNECTIONS:
            self.connections_refused += 1
            return False
        self.connections[conn.key] = conn
        return True

    def _forget(self, conn: TcpConnection, *, linger: bool = False) -> None:
        self.connections.pop(conn.key, None)
        if linger:
            time_wait = self._time_wait
            now = self.node.sim.now
            # remove-then-insert: a re-lingered 4-tuple (an ephemeral port
            # that wrapped inside the linger) moves to the back, so position
            # order is expiry order and the expired entries are a prefix
            time_wait.pop(conn.key, None)
            if len(time_wait) >= TIME_WAIT_CAP:
                # lazily purge the expired head; if nothing has expired,
                # displace oldest-first so the cap actually holds
                while time_wait and next(iter(time_wait.values())) <= now:
                    time_wait.popitem(last=False)
                while len(time_wait) >= TIME_WAIT_CAP:
                    time_wait.popitem(last=False)
            time_wait[conn.key] = now + TIME_WAIT_LINGER

    @property
    def open_connections(self) -> int:
        return len(self.connections)
