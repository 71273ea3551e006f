"""The local recursive server (LRS): a caching iterative resolver.

This is the BIND-shaped client whose standard behaviours the guard schemes
lean on:

* referrals **without glue** trigger a sub-resolution of the NS target name —
  which is how the cookie-embedded NS name (``PR…com``) finds its way back
  to the guard (messages 3/6 of Figure 2);
* referrals **with glue** are followed directly — the fabricated COOKIE2
  address is queried like any other nameserver (message 7 of Figure 2b);
* a TC=1 response re-issues the query over TCP (the TCP-based scheme);
* unanswered queries retry after ``timeout`` seconds — BIND's 2-second timer
  is what makes an unprotected ANS collapse so sharply in Figure 5.

Resolution is fully event-driven on the simulator clock; ``resolve`` returns
immediately and the callback fires with a :class:`ResolveResult`.
"""

from __future__ import annotations

import dataclasses
from ipaddress import IPv4Address
from typing import Callable

from ..dnswire import (
    Message,
    Name,
    Rcode,
    ResourceRecord,
    RRType,
    make_query,
    make_response,
)
from ..netsim import Address, Node, TcpConnection, address_args, format_address, parse_address
from .cache import DnsCache
from .framing import StreamFramer, frame

#: BIND's retry timer from the paper ("BIND-based LRS uses a large time-out
#: value of 2 seconds").
BIND_TIMEOUT = 2.0

#: Upper bound on delegation-chasing steps for one resolution.
MAX_STEPS = 24

#: Upper bound on CNAME chain length.
MAX_CNAME_CHAIN = 8

#: Upper bound on nested NS-target sub-resolutions.
MAX_SUBRESOLUTION_DEPTH = 4


@dataclasses.dataclass(slots=True)
class ResolveResult:
    """Outcome of one recursive resolution."""

    status: str  # "ok" | "nxdomain" | "nodata" | "timeout" | "servfail"
    records: list[ResourceRecord]
    latency: float
    queries_sent: int

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def addresses(self) -> list[IPv4Address]:
        return [rr.rdata.address for rr in self.records if rr.rtype == RRType.A]  # type: ignore[union-attr]


def _randomize_case(name: Name, rng) -> Name:
    """DNS-0x20: flip each letter's case by a coin toss (equality in the
    DNS is case-insensitive, so servers answer normally but must echo it)."""
    labels = []
    for label in name.labels:
        mixed = bytes(
            (b ^ 0x20) if (65 <= b <= 90 or 97 <= b <= 122) and rng.getrandbits(1) else b
            for b in label
        )
        labels.append(mixed)
    return Name(labels)


class LocalRecursiveServer:
    """A caching recursive resolver attached to one node."""

    def __init__(
        self,
        node: Node,
        root_hints: list[Address],
        *,
        timeout: float = BIND_TIMEOUT,
        retries: int = 3,
        cache: DnsCache | None = None,
        serve_clients: bool = False,
        use_0x20: bool = True,
    ):
        """``use_0x20`` enables DNS-0x20 case randomisation: each outgoing
        query's name gets random letter casing, and responses must echo it
        exactly — extra entropy against off-path response forgery."""
        if not root_hints:
            raise ValueError("at least one root hint is required")
        self.node = node
        self.root_hints = [parse_address(ip) for ip in root_hints]
        self.timeout = timeout
        self.retries = retries
        self.use_0x20 = use_0x20
        self.cache = cache if cache is not None else DnsCache()
        self.queries_sent = 0
        self.tcp_fallbacks = 0
        self.resolutions_started = 0
        self._next_msg_id = node.sim.rng.randrange(0, 0xFFFF)
        #: smoothed per-server RTT estimates (BIND-style server selection)
        self._srtt: dict[int, float] = {}
        if serve_clients:
            self._client_socket = node.udp.bind(53, self._on_client_query)

    # -- public API ------------------------------------------------------------

    def resolve(
        self,
        qname: Name | str,
        qtype: int = RRType.A,
        callback: Callable[[ResolveResult], None] | None = None,
    ) -> None:
        """Start resolving; ``callback`` fires when done (possibly immediately)."""
        if isinstance(qname, str):
            qname = Name.from_text(qname)
        self.resolutions_started += 1
        callback = callback or (lambda result: None)
        obs = self.node.sim.obs
        span = None
        if obs is not None and not obs.spans.exhausted:
            # parent onto the delivering packet's span (the stub's attempt)
            # when there is one — linking client-side and resolver-side views
            span = obs.span(
                "recursive.resolve",
                parent=obs.inbound_span(),
                qname=qname,
                node=self.node.name,
            )
            inner = callback

            def callback(result: ResolveResult, _inner=inner, _span=span) -> None:
                _span.finish(status=result.status, queries=result.queries_sent)
                _inner(result)

        task = _Resolution(self, qname, qtype, callback, depth=0)
        task.span = span
        task.step()

    # -- stub-resolver front door -------------------------------------------------

    def _on_client_query(self, payload: Message | bytes, src: int, sport: int, dst: int) -> None:
        if not isinstance(payload, Message) or not payload.is_query() or not payload.header.rd:
            return
        query = payload

        def respond(result: ResolveResult) -> None:
            response = make_response(query, recursion_available=True)
            if result.status == "ok":
                response.answers.extend(result.records)
            elif result.status == "nxdomain":
                response.header.rcode = Rcode.NXDOMAIN
            elif result.status != "nodata":
                response.header.rcode = Rcode.SERVFAIL
            self._client_socket.send(response, src, sport, src=dst)

        self.resolve(query.question.qname, query.question.qtype, respond)

    # -- internals ---------------------------------------------------------------

    def msg_id(self) -> int:
        self._next_msg_id = (self._next_msg_id + 1) & 0xFFFF
        return self._next_msg_id

    def nameservers_for(self, qname: Name) -> tuple[Name | None, list[Name]]:
        """Deepest cached delegation covering ``qname``: (cut, NS target names)."""
        now = self.node.sim.now
        candidate = qname
        while True:
            ns_records = self.cache.get(candidate, RRType.NS, now)
            if ns_records:
                return candidate, [rr.rdata.target for rr in ns_records]  # type: ignore[union-attr]
            if candidate.is_root():
                return None, []
            candidate = candidate.parent()

    def addresses_for(self, ns_names: list[Name]) -> list[int]:
        now = self.node.sim.now
        addresses: list[int] = []
        for ns_name in ns_names:
            for rr in self.cache.get(ns_name, RRType.A, now) or []:
                addresses.append(rr.rdata.ip)  # type: ignore[union-attr]
        return addresses

    # -- server selection (BIND-style smoothed RTT) -----------------------------

    def rank_servers(self, servers: list[int]) -> list[int]:
        """Order candidate servers fastest-first; untried servers lead so
        the resolver gathers an estimate for every address."""
        return sorted(servers, key=lambda ip: self._srtt.get(ip, -1.0))  # ordering is the BIND selection semantics

    def note_rtt(self, server: int, rtt: float) -> None:
        previous = self._srtt.get(server)
        if previous is None or previous <= 0:
            self._srtt[server] = rtt
        else:
            self._srtt[server] = 0.7 * previous + 0.3 * rtt

    def note_timeout(self, server: int) -> None:
        """Penalise a server that failed to answer, encouraging failover.

        A timed-out server's estimate jumps to at least the timeout value —
        it must rank behind every responsive server — and keeps doubling on
        repeated failures.  A later successful response blends it back down.
        """
        previous = self._srtt.get(server, 0.0)
        self._srtt[server] = max(previous * 2, self.timeout)

    def server_rtt(self, server: Address) -> float | None:
        return self._srtt.get(parse_address(server))


class _Resolution:
    """State machine for one in-flight resolution."""

    __slots__ = (
        "resolver",
        "qname",
        "qtype",
        "callback",
        "depth",
        "started_at",
        "steps",
        "cname_links",
        "queries_sent",
        "attempts",
        "done",
        "current_cut",
        "_timer",
        "_socket",
        "span",
    )

    def __init__(
        self,
        resolver: LocalRecursiveServer,
        qname: Name,
        qtype: int,
        callback: Callable[[ResolveResult], None],
        *,
        depth: int,
    ):
        self.resolver = resolver
        self.qname = qname
        self.qtype = qtype
        self.callback = callback
        self.depth = depth
        self.started_at = resolver.node.sim.now
        self.steps = 0
        self.cname_links = 0
        self.queries_sent = 0
        self.attempts = 0
        self.done = False
        #: zone of the servers currently being queried — the bailiwick
        #: boundary for accepting referral and glue records
        self.current_cut = Name.root()
        self._timer = None
        self._socket = None
        #: observability span for the owning resolve() call, if obs is on
        self.span = None

    # -- lifecycle -----------------------------------------------------------

    def finish(self, status: str, records: list[ResourceRecord] | None = None) -> None:
        if self.done:
            return
        self.done = True
        self._cancel_timer()
        self._close_socket()
        latency = self.resolver.node.sim.now - self.started_at
        self.callback(ResolveResult(status, records or [], latency, self.queries_sent))

    def step(self) -> None:
        if self.done:
            return
        self.steps += 1
        if self.steps > MAX_STEPS:
            self.finish("servfail")
            return
        now = self.resolver.node.sim.now
        cache = self.resolver.cache

        cached = cache.get(self.qname, self.qtype, now)
        if cached:
            self.finish("ok", cached)
            return
        if cache.is_negative(self.qname, self.qtype, now):
            self.finish("nxdomain")
            return
        cname = cache.get(self.qname, RRType.CNAME, now)
        if cname and self.qtype != RRType.CNAME:
            self._follow_cname(cname)
            return

        cut, ns_names = self.resolver.nameservers_for(self.qname)
        if cut is None:
            self.current_cut = Name.root()
            self._send_query(self.resolver.root_hints)
            return
        self.current_cut = cut
        addresses = self.resolver.addresses_for(ns_names)
        if addresses:
            self._send_query(addresses)
            return
        # referral without usable glue: resolve one NS target's address first
        if self.depth >= MAX_SUBRESOLUTION_DEPTH or not ns_names:
            self.finish("servfail")
            return
        target = ns_names[0]

        def on_sub(result: ResolveResult) -> None:
            self.queries_sent += result.queries_sent
            if result.ok and result.addresses():
                self.step()
            else:
                # expire the dead delegation so we do not loop on it
                self.resolver.cache.evict(cut, RRType.NS)
                self.finish("servfail")

        sub = _Resolution(self.resolver, target, RRType.A, on_sub, depth=self.depth + 1)
        sub.span = self.span
        sub.step()

    def _follow_cname(self, chain: list[ResourceRecord]) -> None:
        self.cname_links += 1
        if self.cname_links > MAX_CNAME_CHAIN:
            self.finish("servfail")
            return
        self.qname = chain[0].rdata.target  # type: ignore[union-attr]
        self.step()

    # -- query transmission -----------------------------------------------------

    def _send_query(self, servers: list[int]) -> None:
        self.attempts += 1
        if self.attempts > self.resolver.retries:
            self.finish("timeout")
            return
        ranked = self.resolver.rank_servers(servers)
        server = ranked[(self.attempts - 1) % len(ranked)]
        msg_id = self.resolver.msg_id()
        node = self.resolver.node
        wire_qname = (
            _randomize_case(self.qname, node.sim.rng)
            if self.resolver.use_0x20
            else self.qname
        )
        query = make_query(wire_qname, self.qtype, msg_id=msg_id)
        self._close_socket()
        sent_at = node.sim.now
        leg = (
            self.span.child(
                "recursive.query", server=format_address(server), attempt=self.attempts
            )
            if self.span
            else None
        )

        def on_response(payload: Message | bytes, src: int, sport: int, dst: int) -> None:
            if not isinstance(payload, Message) or payload.header.msg_id != msg_id:
                return
            if src != server or not payload.is_response():
                return
            if self.resolver.use_0x20:
                # DNS-0x20: the echoed question must match byte-for-byte
                if (
                    not payload.questions
                    or payload.question.qname.labels != wire_qname.labels
                ):
                    return
            if leg is not None:
                leg.finish()
            self.resolver.note_rtt(server, node.sim.now - sent_at)
            self._on_response(payload, server, servers)

        self._socket = node.udp.bind_ephemeral(on_response)
        self._socket.send(query, server, 53, span=leg)
        self.queries_sent += 1
        self.resolver.queries_sent += 1
        self._arm_timer(servers, server)

    def _arm_timer(self, servers: list[int], server: int) -> None:
        self._cancel_timer()
        self._timer = self.resolver.node.sim.schedule(
            self.resolver.timeout, self._on_timeout, servers, server
        )

    @address_args(0, 1)
    def _on_timeout(self, servers: list[int], server: int) -> None:
        self._timer = None
        self.resolver.note_timeout(server)
        self._send_query(servers)

    # -- response processing -------------------------------------------------------

    def _on_response(self, response: Message, server: int, servers: list[int]) -> None:
        self._cancel_timer()
        self._close_socket()
        if response.header.tc:
            self._retry_over_tcp(server)
            return
        self._process(response)

    def _process(self, response: Message) -> None:
        now = self.resolver.node.sim.now
        cache = self.resolver.cache

        if response.header.rcode == Rcode.NXDOMAIN:
            self._cache_negative(response, now)
            self.finish("nxdomain")
            return
        if response.header.rcode != Rcode.NOERROR:
            self.finish("servfail")
            return

        # cache answer rrsets — but only those in the queried servers'
        # bailiwick (a server cannot speak for names above its zone)
        by_key: dict[tuple[Name, int], list[ResourceRecord]] = {}
        for rr in response.answers:
            by_key.setdefault((rr.name, rr.rtype), []).append(rr)
        for (name, rtype), rrs in by_key.items():
            if name.is_subdomain_of(self.current_cut):
                cache.put(name, rtype, rrs, now)

        wanted = by_key.get((self.qname, self.qtype))
        if wanted:
            self.finish("ok", wanted)
            return
        cname = by_key.get((self.qname, RRType.CNAME))
        if cname:
            self._follow_cname(cname)
            return

        # referral?  Everything cached from a referral must be *in
        # bailiwick* — at or below the zone cut of the servers we queried.
        # A malicious server authoritative for victim.example must not be
        # able to plant a delegation or an A record for www.bank.com; the
        # root's bailiwick is everything, so root glue for gtld servers
        # still flows.  (The classic cache-poisoning hardening.)
        ns_by_owner: dict[Name, list[ResourceRecord]] = {}
        for rr in response.authorities:
            if rr.rtype == RRType.NS and rr.name.is_subdomain_of(self.current_cut):
                ns_by_owner.setdefault(rr.name, []).append(rr)
        if ns_by_owner:
            progressed = False
            for owner, rrs in ns_by_owner.items():
                if self.qname.is_subdomain_of(owner):
                    cache.put(owner, RRType.NS, rrs, now)
                    progressed = True
            glue: dict[tuple[Name, int], list[ResourceRecord]] = {}
            for rr in response.additionals:
                if rr.rtype == RRType.A and rr.name.is_subdomain_of(self.current_cut):
                    glue.setdefault((rr.name, rr.rtype), []).append(rr)
            for (name, rtype), rrs in glue.items():
                cache.put(name, rtype, rrs, now)
            if progressed:
                self.attempts = 0  # fresh delegation, fresh retry budget
                self.step()
                return
        if response.answers or response.authorities:
            self.finish("nodata")
            return
        self.finish("servfail")

    def _cache_negative(self, response: Message, now: float) -> None:
        """RFC 2308: cache NXDOMAIN for min(SOA TTL, SOA minimum)."""
        from ..dnswire import SOA

        for rr in response.authorities:
            if rr.rtype == RRType.SOA and isinstance(rr.rdata, SOA):
                ttl = min(rr.ttl, rr.rdata.minimum)
                self.resolver.cache.put_negative(self.qname, self.qtype, ttl, now)
                return

    # -- TCP fallback ---------------------------------------------------------------

    def _retry_over_tcp(self, server: int) -> None:
        self.resolver.tcp_fallbacks += 1
        node = self.resolver.node
        fallback_span = (
            self.span.child("recursive.tcp_fallback", server=format_address(server))
            if self.span
            else None
        )
        msg_id = self.resolver.msg_id()
        query = make_query(self.qname, self.qtype, msg_id=msg_id)
        framer = StreamFramer()

        # a tight retransmission budget (3 tries ≈ 1.75 s of backoff) makes
        # a dead or blackholed TCP server abort the connection well before
        # the wall-clock fallback timer, so on_close fails this resolution
        # fast instead of stalling the full timeout
        tcp_retries = 3

        def on_established(c: TcpConnection) -> None:
            c.send(frame(query))
            self.queries_sent += 1
            self.resolver.queries_sent += 1

        def on_data(c: TcpConnection, data: bytes) -> None:
            if data == b"":
                return
            for message in framer.feed_or_abort(c, data) or ():
                if message.header.msg_id == msg_id:
                    fallback_timer.cancel()
                    c.close()
                    if fallback_span:
                        fallback_span.finish(outcome="answered")
                    self._process(message)
                    return

        def on_close(c: TcpConnection, error: bool) -> None:
            if error and not self.done:
                fallback_timer.cancel()
                if fallback_span:
                    fallback_span.finish(outcome="error")
                self.finish("servfail")

        # connect first so the fallback deadline can take the bound method
        # and its argument instead of a per-event closure; the TCP
        # callbacks cannot fire before this function returns
        conn = node.tcp.connect(
            server,
            53,
            on_established=on_established,
            on_data=on_data,
            on_close=on_close,
            max_retransmits=tcp_retries,
        )
        fallback_timer = node.sim.schedule(
            self.resolver.timeout * 3, self._tcp_fallback_fail, conn
        )

    def _tcp_fallback_fail(self, conn: TcpConnection) -> None:
        conn.abort()
        self.finish("timeout")

    # -- helpers -----------------------------------------------------------------

    def _cancel_timer(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _close_socket(self) -> None:
        if self._socket is not None:
            self._socket.close()
            self._socket = None
