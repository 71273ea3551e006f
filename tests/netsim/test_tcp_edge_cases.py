"""TCP corner cases: RSTs, half-close, retransmission exhaustion, windows."""

import collections
import enum
import ipaddress
import pytest

from repro.dns.framing import StreamFramer, frame
from repro.dnswire import make_query, make_response
from repro.netsim import (
    Link,
    MAX_RETRANSMITS,
    MSS,
    Node,
    Packet,
    Simulator,
    TcpFlags,
    TcpSegment,
    TcpState,
    parse_address,
)
from repro.netsim import packet as packet_module, tcp as tcp_module
from repro.netsim.tcp import (
    EPHEMERAL_BASE,
    SEND_WINDOW_SEGMENTS,
    TIME_WAIT_CAP,
    TIME_WAIT_LINGER,
    TcpConnection,
)
from tests.netsim.test_netfilter import profiled

SERVER_IP = parse_address("10.0.0.2")


def pair(seed=0, **link_kwargs):
    sim = Simulator(seed=seed)
    client = Node(sim, "client")
    client.add_address("10.0.0.1")
    server = Node(sim, "server")
    server.add_address(SERVER_IP)
    Link(sim, client, server, delay=0.001, **link_kwargs)
    return sim, client, server


class TestRstHandling:
    def test_rst_during_handshake_kills_client(self):
        sim, client, server = pair()
        closes = []
        conn = client.tcp.connect(SERVER_IP, 53, on_close=lambda c, e: closes.append(e))
        # forge a RST from the server before any listener exists
        rst = TcpSegment(sport=53, dport=conn.local_port, seq=0, ack=0, flags=TcpFlags.RST)
        server.send(Packet(src=SERVER_IP, dst=parse_address("10.0.0.1"), segment=rst))
        sim.run(until=1.0)
        assert conn.state is TcpState.CLOSED
        assert closes == [True]

    def test_rst_mid_stream(self):
        sim, client, server = pair()
        server_conns = []
        server.tcp.listen(53, server_conns.append)
        conn = client.tcp.connect(SERVER_IP, 53)
        sim.run(until=0.1)
        assert conn.state is TcpState.ESTABLISHED
        server_conns[0].abort()
        sim.run(until=0.5)
        assert conn.state is TcpState.CLOSED
        assert client.tcp.open_connections == 0


class TestRetransmissionExhaustion:
    def test_connection_aborts_after_max_retries(self):
        sim, client, server = pair()
        server.tcp.listen(53, lambda conn: None)
        conn = client.tcp.connect(SERVER_IP, 53)
        sim.run(until=0.1)
        # the server vanishes: all data segments will be lost
        link = client.links[0]
        link.loss = 1.0
        conn.send(b"doomed")
        sim.run(until=120.0)
        assert conn.state is TcpState.CLOSED
        assert conn._retransmits == 0 or conn.state is TcpState.CLOSED

    def test_retransmit_counter_resets_on_progress(self):
        sim, client, server = pair(seed=8, loss=0.3)
        received = []

        def on_connection(conn):
            conn.on_data = lambda c, data: received.append(data)

        server.tcp.listen(53, on_connection)
        conn = client.tcp.connect(
            SERVER_IP, 53, on_established=lambda c: c.send(b"z" * 8000)
        )
        sim.run(until=60.0)
        assert b"".join(received) == b"z" * 8000


class TestHalfClose:
    def test_client_close_then_server_keeps_sending(self):
        """Passive side may keep sending after receiving FIN (CLOSE_WAIT)."""
        sim, client, server = pair()
        got = []

        def on_connection(conn):
            def on_data(c, data):
                if data == b"":  # client's FIN (EOF)
                    c.send(b"parting-gift")
                    c.close()

            conn.on_data = on_data

        server.tcp.listen(53, on_connection)
        conn = client.tcp.connect(
            SERVER_IP, 53,
            on_established=lambda c: c.close(),
            on_data=lambda c, data: got.append(data),
        )
        sim.run(until=5.0)
        assert b"".join(got).replace(b"", b"") == b"parting-gift"
        assert client.tcp.open_connections == 0
        assert server.tcp.open_connections == 0


class TestWindowing:
    def test_send_window_bounds_inflight(self):
        sim, client, server = pair()
        # a black-hole server: accept the handshake then drop all data ACKs
        server.tcp.listen(53, lambda conn: None)
        conn = client.tcp.connect(SERVER_IP, 53)
        sim.run(until=0.1)
        client.links[0].loss = 1.0  # nothing gets through any more
        conn.send(b"q" * (MSS * (SEND_WINDOW_SEGMENTS + 10)))
        # only a window's worth was put in flight
        assert len(conn._inflight) <= SEND_WINDOW_SEGMENTS

    def test_window_refills_as_acks_arrive(self):
        sim, client, server = pair()
        received = []

        def on_connection(conn):
            conn.on_data = lambda c, data: received.append(len(data))

        server.tcp.listen(53, on_connection)
        total = MSS * (SEND_WINDOW_SEGMENTS + 8)
        client.tcp.connect(SERVER_IP, 53, on_established=lambda c: c.send(b"w" * total))
        sim.run(until=10.0)
        assert sum(received) == total


class TestDuplicateDelivery:
    def test_duplicate_segment_not_delivered_twice(self):
        sim, client, server = pair()
        chunks = []
        server_conns = []

        def on_connection(conn):
            server_conns.append(conn)
            conn.on_data = lambda c, data: chunks.append(data)

        server.tcp.listen(53, on_connection)
        conn = client.tcp.connect(SERVER_IP, 53, on_established=lambda c: c.send(b"once"))
        sim.run(until=0.5)
        # replay the exact data segment
        dup = TcpSegment(
            sport=conn.local_port, dport=53,
            seq=conn.iss + 1, ack=server_conns[0].snd_nxt,
            flags=TcpFlags.ACK, data=b"once",
        )
        client.send(Packet(src=parse_address("10.0.0.1"), dst=SERVER_IP, segment=dup))
        sim.run(until=1.0)
        assert b"".join(chunks) == b"once"


class TestAckAcceptability:
    def test_ack_for_bytes_never_sent_is_ignored(self):
        """RFC 793: an ACK above SND.NXT is not acceptable.  Taking it moved
        ``snd_una`` past ``snd_nxt``, emptied the window and stopped the
        timer, so a lost segment was never retransmitted."""
        sim, client, server = pair()
        received = []

        def on_connection(conn):
            conn.on_data = lambda c, data: received.append(data)

        server.tcp.listen(53, on_connection)
        conn = client.tcp.connect(SERVER_IP, 53)
        sim.run(until=0.1)
        link = client.links[0]
        link.loss = 1.0
        conn.send(b"hello")  # lost on the wire
        link.loss = 0.0
        snd_una, snd_nxt = conn.snd_una, conn.snd_nxt
        assert snd_nxt == snd_una + 5
        beyond = TcpSegment(
            sport=53, dport=conn.local_port,
            seq=conn.rcv_nxt, ack=snd_nxt + 1000, flags=TcpFlags.ACK,
        )
        server.send(Packet(src=SERVER_IP, dst=parse_address("10.0.0.1"), segment=beyond))
        sim.run(until=sim.now + 0.01)
        assert received == []
        assert (conn.snd_una, conn.snd_nxt) == (snd_una, snd_nxt)
        assert len(conn._inflight) == 1 and conn._retransmit_handle is not None
        sim.run(until=sim.now + 1.0)  # the retransmission timer still fires
        assert received == [b"hello"]
        assert conn.snd_una == conn.snd_nxt == snd_nxt


class TestBoundedRetransmission:
    def test_per_connection_budget_overrides_stack_default(self):
        sim, client, server = pair()
        server.tcp.listen(53, lambda conn: None)
        conn = client.tcp.connect(SERVER_IP, 53, max_retransmits=2)
        sim.run(until=0.1)
        client.links[0].loss = 1.0  # blackhole from here on
        conn.send(b"doomed")
        sim.run(until=10.0)
        assert conn.state is TcpState.CLOSED
        assert conn.aborted_by_retries
        assert client.tcp.retry_exhaustions == 1

    def test_tight_budget_aborts_much_faster(self):
        def abort_time(budget):
            sim, client, server = pair()
            server.tcp.listen(53, lambda conn: None)
            closed = []
            conn = client.tcp.connect(
                SERVER_IP, 53, max_retransmits=budget,
                on_close=lambda c, e: closed.append(sim.now),
            )
            sim.run(until=0.1)
            client.links[0].loss = 1.0
            conn.send(b"x")
            sim.run(until=120.0)
            return closed[0]

        assert abort_time(2) < abort_time(MAX_RETRANSMITS) / 3

    def test_transfer_survives_bursty_loss(self):
        """A Gilbert-Elliott channel loses bursts; retransmission recovers."""
        import random

        from repro.netsim import GilbertElliottLoss

        sim, client, server = pair(seed=11)
        link = client.links[0]
        link.loss_model = GilbertElliottLoss(
            random.Random(99),
            p_good_to_bad=0.1,
            p_bad_to_good=0.3,
            loss_bad=1.0,
            start_bad=True,
        )
        received = []

        def on_connection(conn):
            conn.on_data = lambda c, data: received.append(data)

        server.tcp.listen(53, on_connection)
        client.tcp.connect(SERVER_IP, 53, on_established=lambda c: c.send(b"b" * 6000))
        sim.run(until=60.0)
        assert b"".join(received) == b"b" * 6000
        assert link.loss_model.drops > 0


class TestResetAll:
    def test_silent_reset_leaves_peer_guessing(self):
        sim, client, server = pair()
        server.tcp.listen(53, lambda conn: None)
        conn = client.tcp.connect(SERVER_IP, 53)
        sim.run(until=0.1)
        server.tcp.reset_all(send_rst=False)
        assert server.tcp.open_connections == 0
        # the client heard nothing: still established until its own timers fire
        assert conn.state is TcpState.ESTABLISHED

    def test_rst_reset_notifies_peer(self):
        sim, client, server = pair()
        server.tcp.listen(53, lambda conn: None)
        errors = []
        conn = client.tcp.connect(SERVER_IP, 53, on_close=lambda c, e: errors.append(e))
        sim.run(until=0.1)
        server.tcp.reset_all(send_rst=True)
        sim.run(until=0.5)
        assert server.tcp.open_connections == 0
        assert conn.state is TcpState.CLOSED
        assert errors == [True]


class TestTimeWaitLinger:
    def exchange(self, sim, client, server, syn_cookies=True):
        """One complete request/response conversation, cleanly closed."""

        def on_connection(conn):
            def on_data(c, data):
                if data:
                    c.send(b"resp")
                    c.close()

            conn.on_data = on_data

        try:
            server.tcp.listen(53, on_connection, syn_cookies=syn_cookies)
        except Exception:
            pass  # already listening from a previous call
        conn = client.tcp.connect(
            SERVER_IP, 53,
            on_established=lambda c: c.send(b"req"),
            on_data=lambda c, data: c.close() if data else None,
        )
        sim.run(until=sim.now + 1.0)
        assert client.tcp.open_connections == 0
        assert server.tcp.open_connections == 0
        return conn

    def test_stale_duplicate_swallowed_not_cookie_failure(self):
        sim, client, server = pair()
        conn = self.exchange(sim, client, server)
        # replay the client's final pure ACK after full teardown
        stale = TcpSegment(
            sport=conn.local_port, dport=53,
            seq=conn.snd_nxt, ack=conn.rcv_nxt, flags=TcpFlags.ACK,
        )
        client.send(Packet(src=parse_address("10.0.0.1"), dst=SERVER_IP, segment=stale))
        sim.run(until=sim.now + 0.5)
        assert server.tcp.cookie_failures == 0
        assert server.tcp.stale_segments >= 1
        assert server.tcp.open_connections == 0

    def test_fresh_syn_clears_linger_entry(self):
        """A new connect reusing the same 4-tuple must not be blackholed."""
        from repro.netsim.tcp import TIME_WAIT_LINGER

        sim, client, server = pair()
        conn = self.exchange(sim, client, server)
        local, lport, remote, rport = conn.key
        key = (remote, rport, local, lport)  # the same 4-tuple, seen from the server
        assert key in server.tcp._time_wait
        established = []
        # reconnect from the very same ephemeral port, inside the linger
        client.tcp._next_ephemeral = conn.local_port
        reconn = client.tcp.connect(
            SERVER_IP, 53, src=parse_address("10.0.0.1"),
            on_established=lambda c: established.append(c),
        )
        assert reconn.key == conn.key
        sim.run(until=sim.now + min(0.5, TIME_WAIT_LINGER / 2))
        assert established
        assert key not in server.tcp._time_wait

    def test_rst_to_listener_ignored(self):
        sim, client, server = pair()
        server.tcp.listen(53, lambda conn: None, syn_cookies=True)
        rst = TcpSegment(sport=4444, dport=53, seq=9, ack=7, flags=TcpFlags.RST | TcpFlags.ACK)
        client.send(Packet(src=parse_address("10.0.0.1"), dst=SERVER_IP, segment=rst))
        sim.run(until=0.5)
        assert server.tcp.cookie_failures == 0
        assert server.tcp.open_connections == 0

    def test_stale_data_segment_not_counted_as_forged_cookie(self):
        sim, client, server = pair()
        self.exchange(sim, client, server)
        server.tcp._time_wait.clear()  # pretend the linger already expired
        stale = TcpSegment(
            sport=50000, dport=53, seq=123456, ack=987654,
            flags=TcpFlags.ACK, data=b"old-request",
        )
        client.send(Packet(src=parse_address("10.0.0.1"), dst=SERVER_IP, segment=stale))
        sim.run(until=sim.now + 0.5)
        assert server.tcp.cookie_failures == 0
        assert server.tcp.stale_segments >= 1


class TestEphemeralPorts:
    def test_connect_skips_a_port_whose_connection_is_still_open(self):
        """A connection held while its neighbours cycle through the range
        keeps its 4-tuple: the bare counter came round to its port and
        ``_admit`` silently replaced the live connection in the table."""
        sim, client, server = pair()
        accepted = []
        server.tcp.listen(53, accepted.append)
        received = []
        kept = client.tcp.connect(SERVER_IP, 53, on_data=lambda conn, data: received.append(data))
        sim.run(until=0.1)
        assert kept.state is TcpState.ESTABLISHED and kept.local_port == EPHEMERAL_BASE
        lap = []
        for _ in range(65536 - EPHEMERAL_BASE):
            conn = client.tcp.connect(SERVER_IP, 53)
            lap.append(conn.local_port)
            conn.abort()
            sim.run(until=sim.now + 0.01)
        assert kept.local_port not in lap
        assert lap[-1] == EPHEMERAL_BASE + 1  # the range came round, past the held port
        assert client.tcp.connections[kept.key] is kept
        accepted[0].send(b"still yours")
        sim.run(until=sim.now + 0.1)
        assert received == [b"still yours"]


class CountingTable(collections.OrderedDict):
    """A TIME_WAIT table that counts what is done to it — one per insert,
    per removal and per entry a scan visits: the cost of one close in table
    operations, independent of host speed."""

    ops = 0

    def __setitem__(self, key, value):
        self.ops += 1
        super().__setitem__(key, value)

    def __delitem__(self, key):
        self.ops += 1
        super().__delitem__(key)

    def pop(self, key, *default):
        self.ops += 1
        return super().pop(key, *default)

    def popitem(self, last=True):
        self.ops += 1
        return super().popitem(last)

    def _visit(self, entries):
        for entry in entries:
            self.ops += 1
            yield entry

    def __iter__(self):
        return self._visit(super().__iter__())

    def keys(self):
        return self._visit(super().keys())

    def values(self):
        return self._visit(super().values())

    def items(self):
        return self._visit(super().items())


class TestTimeWaitCap:
    """``TcpStack._forget`` with the table at ``TIME_WAIT_CAP``."""

    @staticmethod
    def linger(stack, n):
        """Cleanly close the ``n``-th of a family of distinct 4-tuples."""
        conn = TcpConnection(stack, SERVER_IP, 53, parse_address(0x0A090000 + n), 4444)
        stack._forget(conn, linger=True)
        return conn.key

    def test_cap_holds(self):
        sim, _client, server = pair()
        for n in range(TIME_WAIT_CAP + 100):
            self.linger(server.tcp, n)
        assert len(server.tcp._time_wait) == TIME_WAIT_CAP

    def test_displacement_is_oldest_first(self):
        sim, _client, server = pair()
        keys = [self.linger(server.tcp, n) for n in range(TIME_WAIT_CAP + 2)]
        table = server.tcp._time_wait
        assert keys[0] not in table and keys[1] not in table
        assert list(table) == keys[2:]

    def test_expired_entries_purged_before_any_live_one_is_displaced(self):
        sim, _client, server = pair()
        early = [self.linger(server.tcp, n) for n in range(10)]
        sim.run(until=0.5)
        live = [self.linger(server.tcp, n) for n in range(10, TIME_WAIT_CAP)]
        sim.run(until=TIME_WAIT_LINGER)  # the first ten expire exactly now
        newest = self.linger(server.tcp, TIME_WAIT_CAP)
        table = server.tcp._time_wait
        assert not any(key in table for key in early)
        assert list(table) == live + [newest]

    def test_relingered_key_moves_to_the_back(self):
        sim, _client, server = pair()
        keys = [self.linger(server.tcp, n) for n in range(TIME_WAIT_CAP)]
        sim.run(until=0.5)
        assert self.linger(server.tcp, 0) == keys[0]  # the port pair came round again
        table = server.tcp._time_wait
        assert list(table) == keys[1:] + keys[:1]
        assert table[keys[0]] == 0.5 + TIME_WAIT_LINGER
        # position order is expiry order, so the freshest linger is not
        # the one displaced
        self.linger(server.tcp, TIME_WAIT_CAP)
        assert keys[0] in table and keys[1] not in table

    def test_close_cost_at_the_cap_is_constant(self):
        """Table operations per close — counts, not timings — stop growing
        once the table is full; a rebuild visits every entry and leaves a
        new table behind."""
        sim, _client, server = pair()
        table = server.tcp._time_wait = CountingTable()
        per_close = []
        for n in range(3 * TIME_WAIT_CAP):
            table.ops = 0
            self.linger(server.tcp, n)
            per_close.append(table.ops)
        assert server.tcp._time_wait is table and len(table) == TIME_WAIT_CAP
        assert len(set(per_close[TIME_WAIT_CAP:])) == 1
        assert per_close[-1] <= 4  # re-linger pop, head peek, head removal, insert


class TestSegmentBudget:
    """What one DNS-over-TCP conversation costs, counted in frames rather
    than timed: connect, framed query, framed reply, close — eleven
    delivered segments — through a SYN-cookie listener that charges a
    per-segment CPU cost, as the guard's proxy does (``tcp_proxy``)."""

    #: Python frames per delivered segment, everything included (event loop,
    #: link, CPU queue, both stacks, the codec's share of the two messages):
    #: 38.5 as pinned; 59.4 with ``IntFlag`` flags and address-keyed tables.
    FRAMES_PER_SEGMENT = 39

    @staticmethod
    def conversation(sim, client, answers):
        framer = StreamFramer()

        def on_data(conn, data):
            if data:
                answers.extend(framer.feed(data))
                conn.close()

        client.tcp.connect(
            SERVER_IP, 53,
            on_established=lambda conn: conn.send(frame(make_query("www.foo.com", msg_id=7))),
            on_data=on_data,
        )
        sim.run(until=sim.now + 0.5)

    def test_a_steady_conversation_enters_no_enum_frame_and_hashes_no_address(self):
        sim, client, server = pair()
        server.tcp.segment_cost_fn = lambda open_connections: 1e-6

        def on_connection(conn):
            framer = StreamFramer()

            def on_data(c, data):
                for query in framer.feed(data):
                    c.send(frame(make_response(query)))
                if not data:
                    c.close()

            conn.on_data = on_data

        server.tcp.listen(53, on_connection, syn_cookies=True)
        answers = []
        self.conversation(sim, client, answers)  # warms the route caches
        counts = collections.Counter()
        stack_files = (tcp_module.__file__, packet_module.__file__)

        def on_event(frame_, event, arg):
            if event != "call":
                return
            counts["frames"] += 1
            code = frame_.f_code
            if code.co_filename == enum.__file__:
                counts["enum"] += 1
            elif (
                code.co_filename == ipaddress.__file__
                and code.co_name == "__hash__"
                and frame_.f_back.f_code.co_filename in stack_files
            ):
                counts["address hashes"] += 1

        delivered = client.tcp.segments_received + server.tcp.segments_received
        profiled(lambda: self.conversation(sim, client, answers), on_event)
        delivered = client.tcp.segments_received + server.tcp.segments_received - delivered
        assert [answer.header.msg_id for answer in answers] == [7, 7]
        assert client.tcp.open_connections == server.tcp.open_connections == 0
        assert delivered == 11
        assert counts["enum"] == 0
        assert counts["address hashes"] == 0
        assert counts["frames"] <= self.FRAMES_PER_SEGMENT * delivered
