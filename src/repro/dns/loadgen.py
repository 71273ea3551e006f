"""The paper's "DNS simulator program": high-rate ANS and LRS simulators.

§IV.D: *"We measured the DNS Guard throughput ... using an ANS simulator and
an LRS simulator because the throughput of BIND is too low to stress the DNS
guard prototype.  The ANS simulator responds to each DNS request with the
same answer ... The LRS simulator repeatedly submits requests to resolve the
same domain name, and is able to handle DNS responses containing NS records,
A records, and truncation flag.  After submitting a request, the LRS
simulator waits for the associated response for 10 msec, and sends in the
next request if it receives a response or the timer expires."*

Both are implemented here, plus the paced closed-loop clients used for the
BIND experiment of Figure 5 (whose 2-second BIND timer is what collapses
legitimate throughput under attack).
"""

from __future__ import annotations

import dataclasses
from ipaddress import IPv4Address, IPv4Network
from typing import Callable

from ..dnswire import (
    Header,
    Message,
    Name,
    RRType,
    a_record,
    keep_prototype,
    make_query,
    make_response,
    ns_record,
    response_header,
)
from ..netsim import Node, TcpConnection
from .framing import StreamFramer, frame

#: ANS simulator capacity from the paper: ~110K requests/second.
ANS_SIMULATOR_COST = 1.0 / 110000.0

#: The LRS simulator's response wait (paper: 10 msec).
LRS_SIMULATOR_TIMEOUT = 0.010

#: How long :class:`TcpLoadClient` lets one connect-query-response
#: exchange run before aborting the connection.
TCP_CONNECT_TIMEOUT = 2.0


class AnsSimulator:
    """A minimal ANS that answers every request with the same answer.

    ``mode`` selects the canned response shape:

    * ``"answer"`` — a non-referral A answer (drives the fabricated-NS/IP
      guard path);
    * ``"referral"`` — an NS + glue A referral (drives the NS-name path).
    """

    def __init__(
        self,
        node: Node,
        *,
        mode: str = "answer",
        request_cost: float = ANS_SIMULATOR_COST,
        answer_address: IPv4Address | str = "198.51.100.10",
        referral_target: IPv4Address | str = "198.51.100.53",
        answer_ttl: int = 0,
        queue_limit: float = 0.0005,
    ):
        if mode not in ("answer", "referral"):
            raise ValueError(f"unknown AnsSimulator mode {mode!r}")
        self.node = node
        self.mode = mode
        self.request_cost = request_cost
        self.answer_address = IPv4Address(str(answer_address))
        self.referral_target = IPv4Address(str(referral_target))
        self.answer_ttl = answer_ttl
        self.requests_served = 0
        self.requests_dropped = 0
        # a shallow service queue models the UDP socket buffer: overload
        # means drops (which clients see as loss), not unbounded queueing
        node.cpu.queue_limit = queue_limit
        # observability: spans bridge the CPU-queue gap via a side table —
        # threading them through cpu.submit args would perturb the
        # determinism trace (see AuthoritativeServer)
        self._obs = node.sim.obs
        self._serve_spans: dict[tuple, object] = {}
        # one frozen response per question, as the paper's ANS simulator
        # "responds to each DNS request with the same answer": everything
        # after the header depends only on the question echoed (keyed
        # case-exact — a DNS-0x20 requester checks its own casing comes
        # back), so repeat queries skip record building and the send-path
        # encode entirely; bounded against qname-spraying attacks
        self._responses: dict[tuple, Message] = {}
        if self._obs is not None:
            self._obs.add_snapshot(f"ans.{node.name}", self.stats_snapshot)
        self._socket = node.udp.bind(53, self._on_query)

    def stats_snapshot(self) -> dict[str, int]:
        return {
            "requests_served": self.requests_served,
            "requests_dropped": self.requests_dropped,
        }

    def _on_query(
        self, payload: Message | bytes, src: IPv4Address, sport: int, dst: IPv4Address
    ) -> None:
        if not isinstance(payload, Message) or not payload.is_query():
            return
        obs = self._obs
        span = None
        if obs is not None and not obs.spans.exhausted:
            span = obs.span(
                "ans.serve", parent=obs.inbound_span(), node=self.node.name
            )
        if not self.node.cpu.submit(self.request_cost, self._serve, payload, src, sport, dst):
            self.requests_dropped += 1
            if span:
                span.finish(outcome="cpu_drop")
        elif span:
            self._serve_spans[(src, sport, payload.header.msg_id)] = span
            if len(self._serve_spans) > 4096:
                self._serve_spans.pop(next(iter(self._serve_spans)))

    def _serve(self, query: Message, src: IPv4Address, sport: int, dst: IPv4Address) -> None:
        self.requests_served += 1
        span = self._serve_spans.pop((src, sport, query.header.msg_id), None)
        if span:
            span.finish(outcome="answered")
        self._socket.send(self.respond(query), src, sport, src=dst, span=span)

    def respond(self, query: Message) -> Message:
        if len(query.questions) != 1:
            # unusual: built, and measured on the link, the ordinary way
            return self._build_response(query)
        question = query.questions[0]
        key = (question.qname.labels, question.qtype, question.qclass)
        prototype = self._responses.get(key)
        if prototype is None:
            return keep_prototype(self._responses, key, self._build_response(query).freeze())
        return prototype.with_header(
            response_header(query, authoritative=self.mode == "answer")
        )

    def _build_response(self, query: Message) -> Message:
        qname = query.question.qname
        response = make_response(query, authoritative=self.mode == "answer")
        if self.mode == "answer":
            response.answers.append(a_record(qname, self.answer_address, ttl=self.answer_ttl))
        else:
            # referral: delegate the first label of qname to a fixed
            # child server
            child = qname if len(qname) <= 1 else Name(qname.labels[-1:])
            ns_name = child.child(b"ns1")
            response.authorities.append(ns_record(child, ns_name, ttl=3600))
            response.additionals.append(a_record(ns_name, self.referral_target, ttl=3600))
        return response


@dataclasses.dataclass(slots=True)
class LoadStats:
    """Counters exposed by the load generators."""

    sent: int = 0
    completed: int = 0
    timeouts: int = 0
    window_completed: int = 0
    window_started_at: float = 0.0

    def begin_window(self, now: float) -> None:
        self.window_completed = 0
        self.window_started_at = now

    def throughput(self, now: float) -> float:
        elapsed = now - self.window_started_at
        return self.window_completed / elapsed if elapsed > 0 else 0.0


class LrsSimulator:
    """The closed-loop LRS load generator (paper §IV.D).

    ``workload`` mirrors the protected ANS's answer type:

    * ``"plain"`` — complete on any answer to the original query (modified
      DNS behind a local guard, or an unguarded ANS);
    * ``"referral"`` — follow a glueless NS referral by querying the NS
      target's A record; complete when that A arrives (message 6);
    * ``"nonreferral"`` — additionally re-query the original name at the
      fabricated COOKIE2 address (message 7), completing on its answer
      (message 10).

    A TC=1 response always falls back to TCP (the TCP-based scheme).
    ``cache_cookies=False`` forces the worst-case first-contact exchange on
    every iteration — the paper's "cache miss" rows.

    ``qnames`` widens the workload to many names: each iteration draws one,
    uniformly or Zipf-distributed by list position (``name_distribution``)
    — the realistic popularity skew for the answer-cache and per-name
    cookie-storage experiments.  Cookie state is kept per name.

    With ``target_rate`` set, the loops pace themselves to that aggregate
    request rate instead of running flat out; a timed-out request stalls its
    loop for the full ``timeout``, which with BIND's 2-second timer is what
    collapses legitimate throughput under attack (Figure 5).
    """

    def __init__(
        self,
        node: Node,
        server: IPv4Address,
        qname: Name | str = "www.foo.com",
        *,
        workload: str = "plain",
        concurrency: int = 1,
        timeout: float = LRS_SIMULATOR_TIMEOUT,
        cache_cookies: bool = True,
        qtype: int = RRType.A,
        target_rate: float | None = None,
        qnames: list[Name | str] | None = None,
        name_distribution: str = "uniform",
        zipf_s: float = 1.0,
    ):
        if workload not in ("plain", "referral", "nonreferral"):
            raise ValueError(f"unknown workload {workload!r}")
        if name_distribution not in ("uniform", "zipf"):
            raise ValueError(f"unknown name distribution {name_distribution!r}")
        self.node = node
        self.server = server
        self.qname = Name.from_text(qname) if isinstance(qname, str) else qname
        if qnames is None:
            self.qnames = [self.qname]
        else:
            self.qnames = [
                Name.from_text(n) if isinstance(n, str) else n for n in qnames
            ]
            self.qname = self.qnames[0]
        self.name_distribution = name_distribution
        if name_distribution == "zipf":
            weights = [1.0 / (rank + 1) ** zipf_s for rank in range(len(self.qnames))]
            total = sum(weights)
            self._name_weights = [w / total for w in weights]
        else:
            self._name_weights = None
        self.qtype = qtype
        self.workload = workload
        self.concurrency = concurrency
        self.timeout = timeout
        self.cache_cookies = cache_cookies
        self.target_rate = target_rate
        self.stats = LoadStats()
        self.latencies: list[float] = []
        self.record_latencies = False
        self._next_id = 1
        # one frozen query per question asked, re-headed per request: the
        # paper's LRS simulator "repeatedly submits requests to resolve the
        # same domain name"
        self._queries: dict[tuple, Message] = {}
        # per-name cookie caches shared by all loops
        self._cookie_ns_targets: dict[Name, Name] = {}
        self._cookie2_addresses: dict[Name, IPv4Address] = {}
        self._running = False

    # -- control ---------------------------------------------------------------

    def start(self) -> None:
        self._running = True
        if self.target_rate is None:
            for _ in range(self.concurrency):
                self._begin_iteration()
            return
        # stagger paced loops across one pacing interval
        interval = self.concurrency / self.target_rate
        for i in range(self.concurrency):
            self.node.sim.schedule(i * interval / self.concurrency, self._begin_iteration)

    def stop(self) -> None:
        self._running = False

    def flush_cookie_cache(self) -> None:
        self._cookie_ns_targets.clear()
        self._cookie2_addresses.clear()

    # backwards-friendly single-name accessors used by tests and examples
    @property
    def _cookie_ns_target(self) -> Name | None:
        return self._cookie_ns_targets.get(self.qname)

    @property
    def _cookie2_address(self) -> IPv4Address | None:
        return self._cookie2_addresses.get(self.qname)

    def pick_qname(self) -> Name:
        """Draw this iteration's query name from the workload's names."""
        if len(self.qnames) == 1:
            return self.qnames[0]
        rng = self.node.sim.rng
        if self._name_weights is None:
            return self.qnames[rng.randrange(len(self.qnames))]
        return rng.choices(self.qnames, weights=self._name_weights, k=1)[0]

    # -- one closed-loop iteration ----------------------------------------------

    def _begin_iteration(self) -> None:
        if not self._running:
            return
        self.stats.sent += 1
        _Interaction(self, started_at=self.node.sim.now).start()

    def _iteration_done(self, completed: bool, started_at: float) -> None:
        if completed:
            self.stats.completed += 1
            self.stats.window_completed += 1
            if self.record_latencies:
                self.latencies.append(self.node.sim.now - started_at)
        else:
            self.stats.timeouts += 1
        if self.target_rate is None:
            self._begin_iteration()
            return
        # paced mode: a successful cycle waits out the rest of its pacing
        # interval; a timed-out cycle has already burned more than that
        interval = self.concurrency / self.target_rate
        elapsed = self.node.sim.now - started_at
        self.node.sim.schedule(max(0.0, interval - elapsed), self._begin_iteration)

    def msg_id(self) -> int:
        self._next_id = (self._next_id + 1) & 0xFFFF
        return self._next_id

    def query(self, qname: Name, qtype: int, msg_id: int) -> Message:
        """``make_query(qname, qtype, msg_id=msg_id)``, born frozen."""
        key = (qname.labels, qtype)
        prototype = self._queries.get(key)
        if prototype is None:
            query = make_query(qname, qtype, msg_id=msg_id).freeze()
            return keep_prototype(self._queries, key, query)
        return prototype.with_header(Header(msg_id=msg_id))


class _Interaction:
    """One request interaction: possibly a multi-message cookie exchange."""

    # one per request iteration on the closed-loop hot path (P001)
    __slots__ = (
        "lrs",
        "qname",
        "started_at",
        "node",
        "socket",
        "timer",
        "finished",
        "span",
        "_leg",
    )

    def __init__(self, sim_lrs: LrsSimulator, started_at: float):
        self.lrs = sim_lrs
        self.qname = sim_lrs.pick_qname()
        self.started_at = started_at
        self.node = sim_lrs.node
        self.socket = None
        self.timer = None
        self.finished = False
        self.span = None
        self._leg = None

    # -- plumbing -------------------------------------------------------------

    def start(self) -> None:
        lrs = self.lrs
        obs = self.node.sim.obs
        if obs is not None and not obs.spans.exhausted:
            self.span = obs.span(
                "lrs.interaction", qname=self.qname, workload=lrs.workload
            )
        cookie2 = lrs._cookie2_addresses.get(self.qname)
        ns_target = lrs._cookie_ns_targets.get(self.qname)
        if lrs.workload == "nonreferral" and lrs.cache_cookies and cookie2:
            self._send(self.qname, lrs.qtype, cookie2, self._on_final_answer)
        elif lrs.workload == "referral" and lrs.cache_cookies and ns_target:
            self._send(ns_target, RRType.A, lrs.server, self._on_ns_target_a)
        else:
            self._send(self.qname, lrs.qtype, lrs.server, self._on_first_response)

    def _send(
        self,
        qname: Name,
        qtype: int,
        server: IPv4Address,
        handler: Callable[[Message, IPv4Address], None],
    ) -> None:
        msg_id = self.lrs.msg_id()
        query = self.lrs.query(qname, qtype, msg_id)
        self._cleanup_io()
        leg = None
        if self.span:
            leg = self.span.child("lrs.leg", qname=qname, server=server)
            self._leg = leg

        def on_response(
            payload: Message | bytes, src: IPv4Address, sport: int, dst: IPv4Address
        ) -> None:
            if not isinstance(payload, Message) or payload.header.msg_id != msg_id:
                return
            self._cancel_timer()
            if leg is not None:
                leg.finish()
            if payload.header.tc:
                self._fall_back_to_tcp(query, src)
                return
            handler(payload, src)

        self.socket = self.node.udp.bind_ephemeral(on_response)
        self.socket.send(query, server, 53, span=leg)
        self.timer = self.node.sim.schedule(self.lrs.timeout, self._on_timeout)

    def _on_timeout(self) -> None:
        self.timer = None
        self.finish(False)

    def finish(self, completed: bool) -> None:
        if self.finished:
            return
        self.finished = True
        self._cleanup_io()
        self._cancel_timer()
        if self.span:
            if self._leg and not self._leg.finished:
                self._leg.finish(outcome="timeout")
            self.span.finish(completed=completed)
        self.lrs._iteration_done(completed, self.started_at)

    # -- response handlers ---------------------------------------------------------

    def _on_first_response(self, response: Message, src: IPv4Address) -> None:
        lrs = self.lrs
        if response.answers:
            self.finish(True)
            return
        ns_rrs = [rr for rr in response.authorities if rr.rtype == RRType.NS]
        if not ns_rrs:
            self.finish(lrs.workload == "plain")
            return
        target = ns_rrs[0].rdata.target  # type: ignore[union-attr]
        glue = [rr for rr in response.additionals if rr.rtype == RRType.A and rr.name == target]
        if glue:
            # referral with glue: for these workloads that's completion
            self.finish(True)
            return
        if lrs.cache_cookies:
            lrs._cookie_ns_targets[self.qname] = target
        self._send(target, RRType.A, src, self._on_ns_target_a)

    def _on_ns_target_a(self, response: Message, src: IPv4Address) -> None:
        lrs = self.lrs
        a_rrs = [rr for rr in response.answers if rr.rtype == RRType.A]
        if not a_rrs:
            self.finish(False)
            return
        address = a_rrs[0].rdata.address  # type: ignore[union-attr]
        if lrs.workload == "nonreferral":
            if lrs.cache_cookies:
                lrs._cookie2_addresses[self.qname] = address
            self._send(self.qname, lrs.qtype, address, self._on_final_answer)
            return
        self.finish(True)  # message 6: referral workload complete

    def _on_final_answer(self, response: Message, src: IPv4Address) -> None:
        self.finish(bool(response.answers))

    # -- TCP fallback ---------------------------------------------------------------

    def _fall_back_to_tcp(self, query: Message, server: IPv4Address) -> None:
        self._cleanup_io()
        framer = StreamFramer()
        tcp_span = None
        if self.span:
            tcp_span = self.span.child("lrs.tcp_fallback", server=server)
            self._leg = tcp_span
        def on_established(c: TcpConnection) -> None:
            c.send(frame(query))

        def on_data(c: TcpConnection, data: bytes) -> None:
            if data == b"":
                return
            for message in framer.feed(data):
                if message.header.msg_id == query.header.msg_id:
                    deadline.cancel()
                    c.close()
                    if tcp_span:
                        tcp_span.finish(outcome="answered")
                    self.finish(bool(message.answers))
                    return

        def on_close(c: TcpConnection, error: bool) -> None:
            if error and not self.finished:
                deadline.cancel()
                if tcp_span and not tcp_span.finished:
                    tcp_span.finish(outcome="error")
                self.finish(False)

        # connect first so the failure deadline can take the bound method
        # and its argument instead of a per-event closure (P003); the TCP
        # callbacks cannot fire before this function returns
        conn = self.node.tcp.connect(
            server, 53, on_established=on_established, on_data=on_data, on_close=on_close
        )
        deadline = self.node.sim.schedule(self.lrs.timeout * 10, self._tcp_fail, conn)

    def _tcp_fail(self, conn: TcpConnection) -> None:
        conn.abort()
        self.finish(False)

    # -- helpers ------------------------------------------------------------------

    def _cleanup_io(self) -> None:
        if self.socket is not None:
            self.socket.close()
            self.socket = None

    def _cancel_timer(self) -> None:
        if self.timer is not None:
            self.timer.cancel()
            self.timer = None


class TcpLoadClient:
    """Holds N concurrent DNS-over-TCP requests against a server (Fig 7a).

    Starts ``concurrency`` connections; each sends one framed query, reads
    the response, closes, and is immediately replaced — the paper's LRS
    simulator behaviour for the TCP proxy benchmark.
    """

    def __init__(
        self,
        node: Node,
        server: IPv4Address,
        *,
        concurrency: int,
        qname: Name | str = "www.foo.com",
    ):
        self.node = node
        self.server = server
        self.concurrency = concurrency
        self.qname = Name.from_text(qname) if isinstance(qname, str) else qname
        self.stats = LoadStats()
        self._next_id = 1
        self._running = False
        self._query = make_query(self.qname).freeze()

    def start(self) -> None:
        self._running = True
        for _ in range(self.concurrency):
            self._launch()

    def stop(self) -> None:
        self._running = False

    def _launch(self) -> None:
        if not self._running:
            return
        self.stats.sent += 1
        self._next_id = (self._next_id + 1) & 0xFFFF
        msg_id = self._next_id
        query = self._query.with_header(Header(msg_id=msg_id))
        framer = StreamFramer()
        done = False

        def finish(completed: bool) -> None:
            nonlocal done
            if done:
                return
            done = True
            deadline.cancel()
            if completed:
                self.stats.completed += 1
                self.stats.window_completed += 1
            else:
                self.stats.timeouts += 1
            self._launch()

        def on_established(c: TcpConnection) -> None:
            c.send(frame(query))

        def on_data(c: TcpConnection, data: bytes) -> None:
            if data == b"":
                return
            for message in framer.feed(data):
                if message.header.msg_id == msg_id:
                    c.close()
                    finish(True)
                    return

        def on_close(c: TcpConnection, error: bool) -> None:
            if error:
                finish(False)

        conn = self.node.tcp.connect(
            self.server, 53, on_established=on_established, on_data=on_data, on_close=on_close
        )
        deadline = self.node.sim.schedule(TCP_CONNECT_TIMEOUT, conn.abort)


class TraceReplayClient:
    """Replays a timed query trace against a server (open loop).

    ``trace`` is a list of ``(time_offset_seconds, qname)`` pairs relative
    to :meth:`start`.  Each query is fired at its scheduled instant and
    matched to its response by message id; per-query latency is recorded.
    Useful for replaying captured or synthetic workloads with realistic
    arrival processes instead of closed-loop saturation.
    """

    def __init__(
        self,
        node: Node,
        server: IPv4Address,
        trace: list[tuple[float, Name | str]],
        *,
        qtype: int = RRType.A,
        timeout: float = LRS_SIMULATOR_TIMEOUT,
    ):
        self.node = node
        self.server = server
        self.trace = [
            (offset, Name.from_text(q) if isinstance(q, str) else q)
            for offset, q in sorted(trace)
        ]
        self.qtype = qtype
        self.timeout = timeout
        self.stats = LoadStats()
        self.latencies: list[float] = []
        self._next_id = 1

    def start(self) -> None:
        for offset, qname in self.trace:
            self.node.sim.schedule(offset, self._fire, qname)

    def _fire(self, qname: Name) -> None:
        self.stats.sent += 1
        self._next_id = (self._next_id + 1) & 0xFFFF
        msg_id = self._next_id
        started = self.node.sim.now
        done = [False]

        def finish(completed: bool) -> None:
            if done[0]:
                return
            done[0] = True
            socket.close()
            timer.cancel()
            if completed:
                self.stats.completed += 1
                self.stats.window_completed += 1
                self.latencies.append(self.node.sim.now - started)
            else:
                self.stats.timeouts += 1

        def on_response(payload, src, sport, dst) -> None:
            if isinstance(payload, Message) and payload.header.msg_id == msg_id:
                finish(True)

        socket = self.node.udp.bind_ephemeral(on_response)
        timer = self.node.sim.schedule(self.timeout, finish, False)
        socket.send(make_query(qname, self.qtype, msg_id=msg_id), self.server, 53)
