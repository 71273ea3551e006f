"""Unit-level tests for the transparent TCP proxy."""

import dataclasses
import gc
import weakref
from ipaddress import IPv4Address

import pytest

from repro.analysis.sanitizer import capture_traces
from repro.attack import SpoofingAttacker
from repro.dns import StreamFramer, TcpLoadClient, frame
from repro.dnswire import make_query
from repro.experiments.testbed import ANS_ADDRESS, GuardTestbed
from repro.guard import GuardCosts
from repro.guard.core.admission import MIN_REAP_SECONDS
from repro.netsim import set_tie_hook
from repro.netsim.tcp import TcpConnection


def query_over_tcp(bed, client, qname="www.foo.com", msg_id=1, timeout=2.0):
    """One DNS-over-TCP request; returns the response message or None."""
    framer = StreamFramer()
    result = []

    def on_data(conn, data):
        for message in framer.feed(data):
            result.append(message)
            conn.close()

    client.tcp.connect(
        ANS_ADDRESS, 53,
        on_established=lambda c: c.send(frame(make_query(qname, msg_id=msg_id))),
        on_data=on_data,
    )
    bed.run(timeout)
    return result[0] if result else None


class TestProxyBasics:
    def test_dnat_termination_preserves_server_address(self):
        """The client talks to the ANS's address; the proxy answers as it."""
        bed = GuardTestbed(ans="simulator", ans_mode="answer", guard_policy="tcp")
        client = bed.add_client("lrs")
        response = query_over_tcp(bed, client, msg_id=42)
        assert response is not None
        assert response.header.msg_id == 42
        assert response.answers
        # the connection state lives at the guard, not the ANS
        assert bed.ans_node.tcp.open_connections == 0

    def test_multiple_queries_one_connection(self):
        bed = GuardTestbed(ans="simulator", ans_mode="answer", guard_policy="tcp")
        client = bed.add_client("lrs")
        framer = StreamFramer()
        got = []

        def on_established(conn):
            conn.send(frame(make_query("a.foo.com", msg_id=1)))
            conn.send(frame(make_query("b.foo.com", msg_id=2)))

        def on_data(conn, data):
            got.extend(framer.feed(data))
            if len(got) == 2:
                conn.close()

        client.tcp.connect(ANS_ADDRESS, 53, on_established=on_established, on_data=on_data)
        bed.run(1.0)
        assert sorted(m.header.msg_id for m in got) == [1, 2]

    def test_garbage_on_stream_ignored(self):
        bed = GuardTestbed(ans="simulator", ans_mode="answer", guard_policy="tcp")
        client = bed.add_client("lrs")
        conn = client.tcp.connect(
            ANS_ADDRESS, 53,
            on_established=lambda c: c.send(b"\x00\x04\xde\xad\xbe\xef"),
        )
        bed.run(1.0)
        # undecodable framed payload: dropped without killing the proxy
        assert bed.guard.tcp_proxy.requests_proxied == 0

    def test_response_timeout_cleans_pending_socket(self):
        bed = GuardTestbed(ans="simulator", ans_mode="answer", guard_policy="tcp")
        bed.ans_node.udp._sockets.clear()  # ANS dark: no UDP responses
        client = bed.add_client("lrs")
        response = query_over_tcp(bed, client, timeout=3.0)
        assert response is None
        # the proxy's ephemeral sockets were closed by the timeout path
        live = [s for s in bed.guard_node.udp._sockets.values() if not s.closed]
        assert len(live) == 0


@pytest.fixture
def collector_paused():
    """Only reference counting frees objects inside the test."""
    gc.collect()
    gc.disable()
    yield
    gc.enable()


class TestExchangeLifetime:
    """What a proxied exchange owns dies when the exchange ends, not when
    its reap event fires, and its reap event goes with it."""

    @staticmethod
    def proxied_connections(bed):
        """Weak references to each connection the proxy accepts."""
        listener = bed.guard.tcp_proxy.listener
        accept = listener.on_connection
        accepted = []

        def on_connection(conn):
            accepted.append(weakref.ref(conn))
            accept(conn)

        listener.on_connection = on_connection
        return accepted

    def test_closed_connection_is_freed_before_its_reap_deadline(self, collector_paused):
        bed = GuardTestbed(ans="simulator", ans_mode="answer", guard_policy="tcp")
        accepted = self.proxied_connections(bed)
        client = bed.add_client("lrs")
        response = query_over_tcp(bed, client, timeout=MIN_REAP_SECONDS / 2)
        assert response is not None
        assert bed.guard.tcp_proxy.requests_proxied == 1
        assert len(accepted) == 1
        assert accepted[0]() is None
        assert bed.guard.tcp_proxy.connections_reaped == 0
        # nothing of the exchange is left queued: the same testbed without
        # it has exactly as many live events (the guard's own sweep)
        idle = GuardTestbed(ans="simulator", ans_mode="answer", guard_policy="tcp")
        idle.run(MIN_REAP_SECONDS / 2)
        assert bed.sim.live_pending_events == idle.sim.live_pending_events

    def test_connection_open_at_its_deadline_is_still_reaped(self, collector_paused):
        bed = GuardTestbed(ans="simulator", ans_mode="answer", guard_policy="tcp")
        accepted = self.proxied_connections(bed)
        client = bed.add_client("lrs")
        client.tcp.connect(
            ANS_ADDRESS, 53,
            on_established=lambda c: c.send(frame(make_query("www.foo.com", msg_id=1))),
        )
        bed.run(MIN_REAP_SECONDS / 2)
        assert bed.guard.tcp_proxy.requests_proxied == 1
        assert accepted[0]() is not None  # open: the stack holds it
        bed.run(MIN_REAP_SECONDS)
        assert bed.guard.tcp_proxy.connections_reaped == 1
        assert bed.guard_node.tcp.open_connections == 0
        assert accepted[0]() is None


class TestProxyPolicing:
    def test_rl2_applies_to_proxied_queries(self):
        from repro.guard import VerifiedRequestLimiter

        rl2 = VerifiedRequestLimiter(per_host_rate=10.0, per_host_burst=10.0)
        bed = GuardTestbed(ans="simulator", ans_mode="answer", guard_policy="tcp", rl2=rl2)
        client = bed.add_client("lrs")
        framer = StreamFramer()
        got = []

        def on_established(conn):
            for i in range(50):
                conn.send(frame(make_query(f"n{i}.foo.com", msg_id=i)))

        client.tcp.connect(
            ANS_ADDRESS, 53,
            on_established=on_established,
            on_data=lambda c, data: got.extend(framer.feed(data)),
        )
        bed.run(1.0)
        assert bed.guard.rl2_drops > 0
        assert len(got) <= 12  # burst-limited

    def test_connection_rate_counter(self):
        bed = GuardTestbed(ans="simulator", ans_mode="answer", guard_policy="tcp")
        bed.guard.tcp_proxy.new_connection_rate = 2.0
        bed.guard.tcp_proxy.new_connection_burst = 2.0
        client = bed.add_client("lrs")
        for _ in range(10):
            client.tcp.connect(ANS_ADDRESS, 53)
        bed.run(0.5)
        proxy = bed.guard.tcp_proxy
        assert proxy.connections_accepted <= 3
        assert proxy.connections_rate_limited >= 7


class _RetransmitCounter:
    """A tie hook that counts the retransmission timeouts a run fires; it
    brackets events without reordering any, so the trace is unchanged."""

    def __init__(self):
        self.fired = 0

    def before_event(self, sim, event):
        if getattr(event.callback, "__func__", None) is TcpConnection._on_retransmit:
            self.fired += 1

    def after_event(self, sim, event):
        pass


#: every calibrated guard cost, 16x (the control experiment's slow guard)
SLOW_GUARD_COSTS = GuardCosts(**{
    field.name: 16 * getattr(GuardCosts(), field.name)
    for field in dataclasses.fields(GuardCosts) if field.init
})


class TestProxyUnderCpuDrops:
    #: the event stream of the run below, as ``trace_hash`` digests it
    TRACE_DIGEST = "2289800bac3d272c3f760c14d727929c"

    def test_flooded_proxy_retransmits_what_its_cpu_dropped(self):
        """Fig 7(b)'s shape past its axis: 50 DNS-over-TCP requests through
        the proxy under a spoofed UDP flood, on a guard slow enough that a
        40K req/s flood overflows its CPU queue.  Segments the queue drops
        come back as retransmissions, which no sanitized ``table2`` run
        fires; the digest pins the whole exchange, drops and retransmissions
        included."""
        counter = _RetransmitCounter()
        previous = set_tie_hook(counter)
        try:
            with capture_traces() as collector:
                bed = GuardTestbed(
                    ans="simulator", ans_mode="answer", guard_policy="drop",
                    guard_costs=SLOW_GUARD_COSTS,
                )
                tcp = TcpLoadClient(bed.add_client("lrs"), ANS_ADDRESS, concurrency=50)
                attacker = SpoofingAttacker(bed.add_client("attacker"), ANS_ADDRESS, rate=40_000)
                attacker.start()
                tcp.start()
                (throughput,) = bed.measure([tcp.stats], 0.3, warmup=0.05)
        finally:
            set_tie_hook(previous)
        (trace,) = collector.traces
        assert trace.hexdigest() == self.TRACE_DIGEST
        assert bed.guard_node.tcp.segments_dropped_cpu > 0
        assert counter.fired > 0
        assert throughput > 0  # degraded, not collapsed
