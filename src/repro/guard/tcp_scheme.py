"""The kernel-level transparent TCP proxy (paper §III.C).

The guard answers a suspect UDP query with TC=1; the requester falls back
to TCP.  TCP's handshake echoes the server ISN, so a completed connection
proves the source address — the sequence number *is* the cookie.  The proxy:

* terminates connections addressed to the protected ANS (DNAT-style — the
  connection's local address is the ANS's own IP, which the guard spoofs on
  replies, so the requester never notices the interception);
* runs with SYN cookies, so half-open floods leave no state;
* converts each framed DNS query into a UDP request to the ANS and frames
  the UDP response back onto the connection;
* polices abuse: per-client token buckets on connection setup, and a reaper
  that removes connections living longer than ``reap_rtt_multiple`` × RTT
  (the paper uses 5×).
"""

from __future__ import annotations

from ipaddress import IPv4Address
from typing import TYPE_CHECKING

from ..dnswire import Message
from ..dns.framing import StreamFramer, frame
from ..netsim import BOUNDARY_PRIORITY, TcpConnection, TcpState
from .core.admission import MIN_REAP_SECONDS, REAP_RTT_MULTIPLE, reap_deadline
from .core.ratelimit import TokenBucket

__layer__ = "adapter"

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .pipeline import RemoteDnsGuard

#: Trust boundary for the flow analyser (``repro.analysis.flow``).  The
#: TCP scheme has no taint sources on purpose: a connection only reaches
#: ``_on_connection`` after the three-way handshake, and the handshake
#: proving the peer's address is checked where it happens, in
#: ``repro.netsim.tcp`` (T001 over its trust boundary), not by per-field
#: taint tracking here.
__trust_boundary__ = {
    "scheme": "tcp",
    "entry_points": [],
    "taint_params": [],
    "assumes": (
        "conn.remote is handshake-proven (T001 on repro.netsim.tcp; "
        "tests/netsim/test_tcp.py::TestSynRcvdIsnCheck); "
        "queries arriving over a proven connection are admitted by design "
        "— §III.C: the sequence number is the cookie"
    ),
}

#: Shared-state declaration for the race analyser
#: (``repro.analysis.races``).
__shared_state__ = {
    "TcpProxy": {
        "guarded": ["_client_buckets"],
        "commutative": [
            "requests_proxied",
            "connections_accepted",
            "connections_rate_limited",
            "connections_reaped",
            "malformed_streams",
        ],
    },
}

#: State-bound declaration for the memory analyser
#: (``repro.analysis.memory``).  Rate-limit buckets are keyed by the
#: remote address of a *completed* handshake — address-proven, but still
#: attacker-growable by completing handshakes from many real sources —
#: so the table displaces oldest-first at its cap.  (Connection state
#: itself lives in ``TcpStack.connections``, bounded there.)
__state_bounds__ = {
    "TcpProxy": {
        "_client_buckets": {
            "bound": 8192,
            "evicted_by": "cap",
            "keyed_by": "attacker",
        },
    },
}


class TcpProxy:
    """Transparent DNS-over-TCP terminator in front of the ANS."""

    def __init__(
        self,
        guard: "RemoteDnsGuard",
        *,
        new_connection_rate: float = 50.0,
        new_connection_burst: float = 100.0,
        reap_rtt_multiple: float = REAP_RTT_MULTIPLE,
        response_timeout: float = 2.0,
    ):
        self.guard = guard
        self.node = guard.node
        self.new_connection_rate = new_connection_rate
        self.new_connection_burst = new_connection_burst
        self.reap_rtt_multiple = reap_rtt_multiple
        self.response_timeout = response_timeout
        self.requests_proxied = 0
        self.connections_accepted = 0
        self.connections_rate_limited = 0
        self.connections_reaped = 0
        self.malformed_streams = 0
        #: keyed on the peer's address integer, ``conn.key[2]``
        self._client_buckets: dict[int, TokenBucket] = {}
        self.node.tcp.segment_cost_fn = guard.costs.tcp_segment_cost
        self.listener = self.node.tcp.listen(53, self._on_connection, syn_cookies=True)

    # -- connection handling ------------------------------------------------------

    def _on_connection(self, conn: TcpConnection) -> None:
        now = self.node.sim.now
        peer = conn.key[2]
        bucket = self._client_buckets.get(peer)
        if bucket is None:
            bucket = TokenBucket(self.new_connection_rate, self.new_connection_burst, now=now)
            self._client_buckets[peer] = bucket
            if len(self._client_buckets) > 8192:
                self._client_buckets.pop(next(iter(self._client_buckets)))
        if not bucket.consume(now):
            self.connections_rate_limited += 1
            self.guard._note("tcp", "conn_rate_limited")
            conn.abort()
            return
        self.connections_accepted += 1
        self.guard._note("tcp", "conn_accept")
        framer = StreamFramer()
        conn.on_data = lambda c, data: self._on_stream_data(c, framer, data)
        self._arm_reaper(conn)

    def _arm_reaper(self, conn: TcpConnection) -> None:
        """Abort ``conn`` if it is still open at its reap deadline.  Closing
        it cancels the event, so a reap event lives exactly as long as its
        connection, and the cancel drops the event's hold on it."""
        deadline = reap_deadline(conn.rtt, self.reap_rtt_multiple)

        def reap() -> None:
            if conn.state is not TcpState.CLOSED:
                self.connections_reaped += 1
                self.guard._note("tcp", "conn_reaped")
                conn.abort()

        # Boundary lane: reaping is an expiry sweep — it applies before any
        # same-instant segment delivery on the doomed connection.
        handle = self.node.sim.schedule(deadline, reap, priority=BOUNDARY_PRIORITY)
        conn.on_close = lambda _conn, _error: handle.cancel()

    def _on_stream_data(self, conn: TcpConnection, framer: StreamFramer, data: bytes) -> None:
        if data == b"":
            conn.close()
            return
        queries = framer.feed_or_abort(conn, data)
        if queries is None:
            self.malformed_streams += 1
            return
        for query in queries:
            self._proxy_query(conn, query)

    # -- UDP conversion --------------------------------------------------------------

    def _proxy_query(self, conn: TcpConnection, query: Message) -> None:
        guard = self.guard
        if not query.is_query() or not query.questions:
            return
        if not guard.rl2.allow(conn.key[2], self.node.sim.now):
            guard.rl2_drops += 1
            return
        # charge the UDP-side work (query out + response in)
        if not self.node.cpu.submit(
            2 * guard.costs.per_packet, self._send_upstream, conn, query
        ):
            return

    def _send_upstream(self, conn: TcpConnection, query: Message) -> None:
        node = self.node
        msg_id = query.header.msg_id
        socket = None

        def finish() -> None:
            if socket is not None:
                socket.close()
            timer.cancel()

        def on_response(
            payload: Message | bytes, src: IPv4Address, sport: int, dst: IPv4Address
        ) -> None:
            if not isinstance(payload, Message) or payload.header.msg_id != msg_id:
                return
            finish()
            self.requests_proxied += 1
            self.guard._note("tcp", "proxied")
            if conn.state in (TcpState.ESTABLISHED, TcpState.CLOSE_WAIT):
                conn.send(frame(payload))

        socket = node.udp.bind_ephemeral(on_response)
        timer = node.sim.schedule(self.response_timeout, finish)
        socket.send(query, self.guard.ans_address, 53)
