"""The authoritative name server (ANS).

Serves one or more zones over UDP (with RFC 1035 truncation) and optionally
TCP.  Every request costs CPU; when the CPU queue overflows the request is
dropped silently — reproducing the indiscriminate drops that make an
unprotected BIND collapse under attack (paper §IV.C: UDP capacity 14K
req/s, TCP capacity 2.2K req/s on the testbed hardware).

A standard query's one question is answered, as the ANS simulator's is,
by re-heading a frozen response kept per question while the zone that
answers it, that zone's edit count and the TTL override are the ones it
was built under: a repeat skips the lookup, TTL rewrite and encode.
"""

from __future__ import annotations

import dataclasses

from ..dnswire import (
    MAX_UDP_PAYLOAD,
    Message,
    Name,
    Opcode,
    Rcode,
    RRType,
    keep_prototype,
    make_response,
    response_header,
)
from ..netsim import Node, TcpConnection, address_args, parse_address
from .framing import StreamFramer, frame
from .zone import AnswerKind, Zone

#: Paper-calibrated default per-request CPU costs (BIND 9.3.1 on 2.26 GHz P4).
BIND_UDP_COST = 1.0 / 14000.0
BIND_TCP_COST = 1.0 / 2200.0


class AuthoritativeServer:
    """An ANS instance bound to a node's port 53 (UDP and optionally TCP)."""

    def __init__(
        self,
        node: Node,
        zones: list[Zone],
        *,
        udp_request_cost: float = BIND_UDP_COST,
        tcp_request_cost: float = BIND_TCP_COST,
        serve_tcp: bool = True,
        answer_ttl_override: int | None = None,
        queue_limit: float = 0.01,
        axfr_allow: "list | None" = None,
    ):
        """``answer_ttl_override`` forces all answer TTLs (0 disables LRS
        caching, the configuration of the Figure 5 experiment).
        ``axfr_allow`` restricts zone transfers to the listed addresses
        (None = refuse all; secondaries must be allow-listed)."""
        self.node = node
        self.axfr_allow = (
            {parse_address(ip) for ip in axfr_allow} if axfr_allow is not None else None
        )
        self.axfr_served = 0
        self.axfr_refused = 0
        # a shallow queue models the socket buffer: overload drops requests
        node.cpu.queue_limit = queue_limit
        self.zones = sorted(zones, key=lambda z: len(z.origin), reverse=True)
        self.udp_request_cost = udp_request_cost
        self.tcp_request_cost = tcp_request_cost
        self.answer_ttl_override = answer_ttl_override
        self.requests_served = 0
        self.requests_dropped = 0
        self.referrals_sent = 0
        self.answers_sent = 0
        # question (case-exact) -> (what it was built under, frozen response,
        # answers_sent and referrals_sent bumps), bounded by keep_prototype
        self._responses: dict[tuple, tuple] = {}
        # observability: serve spans bridge the CPU-queue gap between the
        # query's arrival and _serve_udp running.  The span is keyed in a
        # side table rather than threaded through cpu.submit because extra
        # callback args would change the determinism trace — the event
        # stream must be identical with obs on or off.
        self._obs = node.sim.obs
        self._serve_spans: dict[tuple, object] = {}
        if self._obs is not None:
            self._obs.add_snapshot(f"ans.{node.name}", self.stats)
        self._socket = node.udp.bind(53, self._on_udp_query)
        if serve_tcp:
            node.tcp.listen(53, self._on_tcp_connection)

    # -- UDP path -----------------------------------------------------------

    def _on_udp_query(
        self, payload: Message | bytes, src: int, sport: int, dst: int
    ) -> None:
        if not isinstance(payload, Message) or not payload.is_query():
            return
        obs = self._obs
        span = None
        if obs is not None and not obs.spans.exhausted:
            span = obs.span(
                "ans.serve", parent=obs.inbound_span(), node=self.node.name
            )
        if not self.node.cpu.submit(
            self.udp_request_cost, self._serve_udp, payload, src, sport, dst
        ):
            self.requests_dropped += 1
            if span:
                span.finish(outcome="cpu_drop")
        elif span:
            self._serve_spans[(src, sport, payload.header.msg_id)] = span
            if len(self._serve_spans) > 4096:
                self._serve_spans.pop(next(iter(self._serve_spans)))

    @address_args(1, 3)
    def _serve_udp(self, query: Message, src: int, sport: int, dst: int) -> None:
        span = self._serve_spans.pop((src, sport, query.header.msg_id), None)
        response = self.respond(query)
        if response is None:
            if span:
                span.finish(outcome="no_response")
            return
        limit = self._udp_payload_limit(query)
        # one encode serves the size check, the truncation probe and the
        # send path (a memoized response is born frozen: a no-op for it)
        response.freeze()
        if response.wire_size() > limit:  # response frozen above: a cached lookup
            wire_capped = Message.decode(response.encode(max_size=limit))
            response = wire_capped
        if span:
            span.finish(outcome="answered")
        self._socket.send(response, src, sport, src=dst, span=span)

    @staticmethod
    def _udp_payload_limit(query: Message) -> int:
        """EDNS(0) §6.2.3: an OPT RR's CLASS advertises the requester's UDP
        payload capacity; classic requesters get the 512-byte limit."""
        for rr in query.additionals:  # queries carry at most one OPT
            if rr.rtype == RRType.OPT:
                return max(MAX_UDP_PAYLOAD, rr.rclass)
        return MAX_UDP_PAYLOAD

    # -- TCP path -----------------------------------------------------------

    def _on_tcp_connection(self, conn: TcpConnection) -> None:
        framer = StreamFramer()

        def on_data(c: TcpConnection, data: bytes) -> None:
            if data == b"":
                c.close()
                return
            for query in framer.feed_or_abort(c, data) or ():
                if not self.node.cpu.submit(self.tcp_request_cost, self._serve_tcp, c, query):
                    self.requests_dropped += 1

        conn.on_data = on_data

    def _serve_tcp(self, conn: TcpConnection, query: Message) -> None:
        from ..netsim import TcpState

        if query.questions and query.question.qtype == RRType.AXFR:
            self._serve_axfr(conn, query)
            return
        response = self.respond(query)
        if response is None:
            return
        if conn.state in (TcpState.ESTABLISHED, TcpState.CLOSE_WAIT):
            conn.send(frame(response))

    def _serve_axfr(self, conn: TcpConnection, query: Message) -> None:
        """RFC 5936 zone transfer: SOA, body records, SOA again.

        The body is split across messages every 100 records, as real
        servers chunk transfers.  Unauthorised requesters get REFUSED.
        """
        from ..netsim import TcpState

        def send(message: Message) -> None:
            if conn.state in (TcpState.ESTABLISHED, TcpState.CLOSE_WAIT):
                conn.send(frame(message))

        zone = self.zone_for(query.question.qname)
        soa = zone.soa() if zone is not None else None
        allowed = self.axfr_allow is not None and conn.remote_ip in self.axfr_allow
        if zone is None or soa is None or zone.origin != query.question.qname or not allowed:
            self.axfr_refused += 1
            send(make_response(query, rcode=Rcode.REFUSED))
            return
        self.axfr_served += 1
        body = [rr for rr in zone.all_records() if rr.rtype != RRType.SOA]
        first = make_response(query, authoritative=True)
        first.answers.append(soa)
        for index, rr in enumerate(body):
            first.answers.append(rr)
            if len(first.answers) >= 100:
                send(first)
                first = make_response(query, authoritative=True)
        first.answers.append(soa)  # closing SOA marks the end of transfer
        send(first)

    # -- shared query logic ---------------------------------------------------

    def respond(self, query: Message) -> Message | None:
        """The response to ``query`` (pure logic, no I/O or CPU cost): a
        standard query's one question re-heads its kept prototype, anything
        else is built by :meth:`_respond`, the reference."""
        questions = query.questions
        if query.header.opcode != Opcode.QUERY or len(questions) != 1:
            return self._respond(query)
        question = questions[0]
        zone = self.zone_for(question.qname)
        built_under = (zone, zone.edits if zone is not None else 0, self.answer_ttl_override)
        key = (question.qname.labels, question.qtype, question.qclass)
        entry = self._responses.get(key)
        if entry is None or entry[0] != built_under:
            answers, referrals = self.answers_sent, self.referrals_sent
            prototype = self._respond(query).freeze()
            entry = (
                built_under, prototype,
                self.answers_sent - answers, self.referrals_sent - referrals,
            )
            keep_prototype(self._responses, key, entry)
            return prototype
        _, prototype, answers, referrals = entry
        self.requests_served += 1
        self.answers_sent += answers
        self.referrals_sent += referrals
        header = prototype.header
        return prototype.with_header(
            response_header(query, rcode=header.rcode, authoritative=header.aa)
        )

    def _respond(self, query: Message) -> Message:
        """Build the response for ``query`` from the zone data."""
        if query.header.opcode != Opcode.QUERY or not query.questions:
            return make_response(query, rcode=Rcode.NOTIMP)
        question = query.question
        zone = self.zone_for(question.qname)
        if zone is None:
            self.requests_served += 1
            return make_response(query, rcode=Rcode.REFUSED)

        result = zone.lookup(question.qname, question.qtype)
        response = make_response(query, authoritative=not result.is_referral)
        if result.kind is AnswerKind.ANSWER:
            response.answers.extend(result.records)
            self.answers_sent += 1
        elif result.kind is AnswerKind.CNAME:
            response.answers.extend(result.records)
            target = result.records[0].rdata.target  # type: ignore[union-attr]
            chase = zone.lookup(target, question.qtype)
            if chase.kind is AnswerKind.ANSWER:
                response.answers.extend(chase.records)
            self.answers_sent += 1
        elif result.kind is AnswerKind.DELEGATION:
            response.authorities.extend(result.authority)
            response.additionals.extend(result.additional)
            self.referrals_sent += 1
        elif result.kind is AnswerKind.NXDOMAIN:
            response.header.rcode = Rcode.NXDOMAIN
            response.authorities.extend(result.authority)
        else:  # NODATA
            response.authorities.extend(result.authority)
        self.requests_served += 1
        if self.answer_ttl_override is not None:
            response.answers = [
                dataclasses.replace(rr, ttl=self.answer_ttl_override) for rr in response.answers
            ]
        return response

    def stats(self) -> dict[str, int]:
        """A point-in-time snapshot of the server's operational counters."""
        return {
            "requests_served": self.requests_served,
            "requests_dropped": self.requests_dropped,
            "referrals_sent": self.referrals_sent,
            "answers_sent": self.answers_sent,
            "axfr_served": self.axfr_served,
            "axfr_refused": self.axfr_refused,
        }

    def zone_for(self, qname: Name) -> Zone | None:
        """The most specific zone containing ``qname`` (zones sorted deep-first)."""
        for zone in self.zones:  # deep-first list order is the most-specific-match semantics
            if qname.is_subdomain_of(zone.origin):
                return zone
        return None
