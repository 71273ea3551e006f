"""The stub resolver: the thin library on end-user machines (Figure 1).

It knows one trick: send a recursion-desired query to the configured LRS and
wait.  Applications in the examples use this to drive the full stack.

Real stub resolvers are not one-shot: ``options timeouts:n attempts:m`` in
resolv.conf retries a silent server.  This one does the same — each attempt
re-sends the query and waits ``timeout * backoff**attempt`` seconds, so a
query lost to a link blackout or an overloaded LRS is recovered instead of
surfacing straight to the application as a failure.
"""

from __future__ import annotations

import dataclasses
from ipaddress import IPv4Address
from typing import Callable

from ..dnswire import Message, Name, Rcode, ResourceRecord, RRType, make_query
from ..netsim import Address, Node, parse_address


@dataclasses.dataclass(slots=True)
class StubResult:
    """What a stub query produced."""

    status: str  # "ok" | "nxdomain" | "servfail" | "timeout"
    records: list[ResourceRecord]
    latency: float
    retries: int = 0

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def addresses(self) -> list[IPv4Address]:
        return [rr.rdata.address for rr in self.records if rr.rtype == RRType.A]  # type: ignore[union-attr]


class StubResolver:
    """Sends recursive queries to a configured LRS.

    ``retries`` is the number of *additional* attempts after the first;
    attempt ``i`` waits ``timeout * backoff**i`` before giving up, so the
    defaults (1.0 s, 2 retries, 2× backoff) surface a hard failure after
    1 + 2 + 4 = 7 seconds — glibc-shaped behaviour, and the reason a brief
    upstream blackout costs latency rather than an error.
    """

    def __init__(
        self,
        node: Node,
        lrs_address: Address,
        *,
        timeout: float = 1.0,
        retries: int = 2,
        backoff: float = 2.0,
    ):
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if timeout <= 0 or backoff < 1.0:
            raise ValueError("timeout must be positive and backoff >= 1")
        self.node = node
        self.lrs_address = parse_address(lrs_address)
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.queries_sent = 0
        self.retries_sent = 0
        self._next_id = node.sim.rng.randrange(0x10000)

    def query(
        self,
        qname: Name | str,
        qtype: int = RRType.A,
        callback: Callable[[StubResult], None] | None = None,
    ) -> None:
        callback = callback or (lambda result: None)
        self._next_id = (self._next_id + 1) & 0xFFFF
        msg_id = self._next_id
        message = make_query(qname, qtype, msg_id=msg_id, recursion_desired=True)
        started = self.node.sim.now
        attempt = 0
        timer = None
        finished = False
        obs = self.node.sim.obs
        query_span = (
            obs.span("stub.query", qname=qname, node=self.node.name)
            if obs is not None and not obs.spans.exhausted
            else None
        )
        attempt_span = None

        def finish(result: StubResult) -> None:
            nonlocal finished
            if finished:
                return
            finished = True
            if timer is not None:
                timer.cancel()
            socket.close()
            if query_span:
                if attempt_span:
                    attempt_span.finish()
                query_span.finish(status=result.status, retries=result.retries)
            callback(result)

        def on_response(payload: Message | bytes, src: int, sport: int, dst: int) -> None:
            if not isinstance(payload, Message) or payload.header.msg_id != msg_id:
                return
            latency = self.node.sim.now - started
            if payload.header.rcode == Rcode.NXDOMAIN:
                finish(StubResult("nxdomain", [], latency, attempt))
            elif payload.header.rcode != Rcode.NOERROR:
                finish(StubResult("servfail", [], latency, attempt))
            else:
                finish(StubResult("ok", list(payload.answers), latency, attempt))

        def send_attempt() -> None:
            nonlocal timer, attempt_span
            if query_span:
                if attempt_span:
                    attempt_span.finish(outcome="timeout")
                attempt_span = query_span.child("stub.attempt", n=attempt)
            socket.send(message, self.lrs_address, 53, span=attempt_span)
            self.queries_sent += 1
            if attempt:
                self.retries_sent += 1
            timer = self.node.sim.schedule(
                self.timeout * self.backoff**attempt, on_timeout
            )

        def on_timeout() -> None:
            nonlocal attempt
            if attempt >= self.retries:
                finish(StubResult("timeout", [], self.node.sim.now - started, attempt))
                return
            attempt += 1
            send_attempt()

        socket = self.node.udp.bind_ephemeral(on_response)
        send_attempt()
