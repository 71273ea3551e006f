"""Unit tests for the TCP implementation: handshake, stream, SYN cookies."""

from ipaddress import IPv4Address

import pytest

from repro.netsim import (
    Link,
    MSS,
    Node,
    Simulator,
    TcpFlags,
    TcpSegment,
    TcpState,
    Packet,
)


def tcp_pair(seed=0, **link_kwargs):
    sim = Simulator(seed=seed)
    client = Node(sim, "client")
    server = Node(sim, "server")
    client.add_address("10.0.0.1")
    server.add_address("10.0.0.2")
    Link(sim, client, server, delay=0.001, **link_kwargs)
    return sim, client, server


SERVER_IP = IPv4Address("10.0.0.2")


class TestHandshake:
    def test_three_way_handshake(self):
        sim, client, server = tcp_pair()
        accepted = []
        established = []
        server.tcp.listen(53, accepted.append)
        client.tcp.connect(SERVER_IP, 53, on_established=established.append)
        sim.run()
        assert len(accepted) == 1 and len(established) == 1
        assert accepted[0].state is TcpState.ESTABLISHED
        assert established[0].state is TcpState.ESTABLISHED

    def test_rtt_measured(self):
        sim, client, server = tcp_pair()
        server.tcp.listen(53, lambda conn: None)
        conn = client.tcp.connect(SERVER_IP, 53)
        sim.run()
        assert conn.rtt == pytest.approx(0.002, abs=1e-6)

    def test_syn_to_closed_port_ignored(self):
        sim, client, server = tcp_pair()
        conn = client.tcp.connect(SERVER_IP, 9999)
        sim.run(until=30.0)
        # retransmits exhausted -> aborted
        assert conn.state is TcpState.CLOSED

    def test_syn_retransmission_on_loss(self):
        sim, client, server = tcp_pair(seed=3, loss=0.3)
        accepted = []
        server.tcp.listen(53, accepted.append)
        client.tcp.connect(SERVER_IP, 53)
        sim.run(until=20.0)
        assert len(accepted) == 1


class TestSynCookies:
    def test_handshake_with_cookies(self):
        sim, client, server = tcp_pair()
        accepted = []
        server.tcp.listen(53, accepted.append, syn_cookies=True)
        established = []
        client.tcp.connect(SERVER_IP, 53, on_established=established.append)
        sim.run()
        assert len(accepted) == 1 and len(established) == 1

    def test_no_state_for_half_open(self):
        """SYN flood with spoofed sources leaves the cookie listener stateless."""
        sim, client, server = tcp_pair()
        server.tcp.listen(53, lambda conn: None, syn_cookies=True)
        for i in range(100):
            syn = TcpSegment(sport=10000 + i, dport=53, seq=i, ack=0, flags=TcpFlags.SYN)
            client.send(Packet(src=IPv4Address(f"9.9.{i % 250}.{i % 250 + 1}"),
                               dst=SERVER_IP, segment=syn))
        sim.run(until=1.0)
        assert server.tcp.open_connections == 0

    def test_stateful_listener_accumulates_half_open(self):
        sim, client, server = tcp_pair()
        server.tcp.listen(53, lambda conn: None, syn_cookies=False)
        for i in range(50):
            syn = TcpSegment(sport=20000 + i, dport=53, seq=i, ack=0, flags=TcpFlags.SYN)
            client.send(Packet(src=IPv4Address("9.9.9.9"), dst=SERVER_IP, segment=syn))
        sim.run(until=0.01)
        assert server.tcp.open_connections == 50

    def test_forged_ack_rejected(self):
        """An ACK with a guessed cookie must not create a connection."""
        sim, client, server = tcp_pair()
        listener = server.tcp.listen(53, lambda conn: None, syn_cookies=True)
        forged = TcpSegment(sport=12345, dport=53, seq=1, ack=424242, flags=TcpFlags.ACK)
        client.send(Packet(src=IPv4Address("6.6.6.6"), dst=SERVER_IP, segment=forged))
        sim.run()
        assert server.tcp.open_connections == 0
        assert listener.cookies_rejected == 1

    def test_spoofed_syn_gets_no_connection(self):
        """The spoofer never sees the SYN-ACK, so it cannot complete."""
        sim, client, server = tcp_pair()
        accepted = []
        server.tcp.listen(53, accepted.append, syn_cookies=True)
        syn = TcpSegment(sport=5555, dport=53, seq=77, ack=0, flags=TcpFlags.SYN)
        client.send(Packet(src=IPv4Address("44.44.44.44"), dst=SERVER_IP, segment=syn))
        sim.run(until=5.0)
        assert accepted == []


class TestDataTransfer:
    def echo_server(self, server, port=53, **listen_kwargs):
        def on_connection(conn):
            conn.on_data = lambda c, data: c.send(data) if data else None

        server.tcp.listen(port, on_connection, **listen_kwargs)

    def test_small_payload_echo(self):
        sim, client, server = tcp_pair()
        self.echo_server(server)
        received = []

        def on_established(conn):
            conn.send(b"hello dns")

        conn = client.tcp.connect(
            SERVER_IP, 53,
            on_established=on_established,
            on_data=lambda c, data: received.append(data),
        )
        sim.run(until=2.0)
        assert b"".join(received) == b"hello dns"

    def test_multi_segment_transfer(self):
        sim, client, server = tcp_pair()
        blob = bytes(range(256)) * 20  # 5120 bytes > 3 segments
        received = []

        def on_connection(conn):
            conn.on_data = lambda c, data: received.append(data)

        server.tcp.listen(53, on_connection)
        client.tcp.connect(SERVER_IP, 53, on_established=lambda c: c.send(blob))
        sim.run(until=2.0)
        assert b"".join(received) == blob
        assert len(received) >= len(blob) // MSS

    def test_transfer_survives_loss(self):
        sim, client, server = tcp_pair(seed=11, loss=0.15)
        blob = b"q" * 4000
        received = []

        def on_connection(conn):
            conn.on_data = lambda c, data: received.append(data)

        server.tcp.listen(53, on_connection)
        client.tcp.connect(SERVER_IP, 53, on_established=lambda c: c.send(blob))
        sim.run(until=30.0)
        assert b"".join(received) == blob

    def test_graceful_close_both_ways(self):
        sim, client, server = tcp_pair()
        closes = []

        def on_connection(conn):
            conn.on_data = lambda c, data: c.close() if data == b"" else None
            conn.on_close = lambda c, err: closes.append(("server", err))

        server.tcp.listen(53, on_connection)
        conn = client.tcp.connect(SERVER_IP, 53, on_close=lambda c, e: closes.append(("client", e)))
        conn.on_established = lambda c: c.close()
        sim.run(until=5.0)
        assert ("client", False) in closes
        assert client.tcp.open_connections == 0
        assert server.tcp.open_connections == 0

    def test_abort_sends_rst(self):
        sim, client, server = tcp_pair()
        server_conns = []
        closes = []

        def on_connection(conn):
            server_conns.append(conn)
            conn.on_close = lambda c, err: closes.append(err)

        server.tcp.listen(53, on_connection)
        conn = client.tcp.connect(SERVER_IP, 53, on_established=lambda c: c.abort())
        sim.run(until=2.0)
        assert closes == [True]
        assert server.tcp.open_connections == 0

    def test_send_after_close_raises(self):
        sim, client, server = tcp_pair()
        self.echo_server(server)
        errors = []

        def on_established(conn):
            conn.close()
            try:
                conn.send(b"late")
            except Exception as exc:  # noqa: BLE001 - asserting type below
                errors.append(type(exc).__name__)

        client.tcp.connect(SERVER_IP, 53, on_established=on_established)
        sim.run(until=2.0)
        assert errors == ["ConnectionError_"]

    def test_duration_tracks_age(self):
        sim, client, server = tcp_pair()
        server.tcp.listen(53, lambda conn: None)
        conn = client.tcp.connect(SERVER_IP, 53)
        sim.run(until=3.0)
        assert conn.duration == pytest.approx(3.0)


class TestSegmentCost:
    def test_cpu_cost_charged_per_segment(self):
        sim, client, server = tcp_pair()
        server.tcp.segment_cost_fn = lambda open_connections: 0.001
        self_done = []
        server.tcp.listen(53, self_done.append)
        client.tcp.connect(SERVER_IP, 53)
        sim.run(until=2.0)
        assert server.cpu.completed_busy_seconds() > 0

    def test_overloaded_cpu_drops_segments(self):
        sim, client, server = tcp_pair()
        server.tcp.segment_cost_fn = lambda open_connections: 0.5
        server.cpu.queue_limit = 0.4
        server.tcp.listen(53, lambda conn: None)
        for i in range(20):
            syn = TcpSegment(sport=30000 + i, dport=53, seq=1, ack=0, flags=TcpFlags.SYN)
            client.send(Packet(src=IPv4Address("7.7.7.7"), dst=SERVER_IP, segment=syn))
        sim.run(until=1.0)
        assert server.tcp.segments_dropped_cpu > 0
