"""Unit tests for links, nodes, routing and UDP."""

from ipaddress import IPv4Address

import pytest

from repro.dnswire import Message, make_query
from repro.netsim import (
    DnsPayload,
    Hook,
    Link,
    Node,
    Packet,
    RoutingError,
    Simulator,
    SocketError,
    UdpDatagram,
    Verdict,
)
from repro.netsim.udp import EPHEMERAL_BASE

EPHEMERAL_PORTS = 65536 - EPHEMERAL_BASE


def two_hosts(sim, **link_kwargs):
    a = Node(sim, "a")
    b = Node(sim, "b")
    a.add_address("10.0.0.1")
    b.add_address("10.0.0.2")
    link = Link(sim, a, b, **link_kwargs)
    return a, b, link


class TestLink:
    def test_propagation_delay(self):
        sim = Simulator()
        a, b, _ = two_hosts(sim, delay=0.005)
        arrivals = []
        b.udp.bind(53, lambda payload, src, sport, dst: arrivals.append(sim.now))
        sock = a.udp.bind_ephemeral(lambda *args: None)
        sock.send(b"hello", IPv4Address("10.0.0.2"), 53)
        sim.run()
        assert arrivals == [pytest.approx(0.005)]

    def test_bandwidth_serialisation(self):
        sim = Simulator()
        a, b, _ = two_hosts(sim, delay=0.0, bandwidth=1000.0)  # 1000 B/s
        arrivals = []
        b.udp.bind(53, lambda payload, src, sport, dst: arrivals.append(sim.now))
        sock = a.udp.bind_ephemeral(lambda *args: None)
        # packet = 20 IP + 8 UDP + 72 payload = 100 bytes -> 0.1 s each
        sock.send(b"x" * 72, IPv4Address("10.0.0.2"), 53)
        sock.send(b"x" * 72, IPv4Address("10.0.0.2"), 53)
        sim.run()
        assert arrivals == [pytest.approx(0.1), pytest.approx(0.2)]

    def test_queue_overflow_drops(self):
        sim = Simulator()
        a, b, link = two_hosts(sim, bandwidth=1000.0, queue_limit=0.15)
        received = []
        b.udp.bind(53, lambda payload, src, sport, dst: received.append(payload))
        sock = a.udp.bind_ephemeral(lambda *args: None)
        for _ in range(10):
            sock.send(b"x" * 72, IPv4Address("10.0.0.2"), 53)  # 0.1 s each
        sim.run()
        sent, dropped, _ = link.stats(a)
        assert dropped > 0
        assert sent + dropped == 10
        assert len(received) == sent

    def test_lossy_link_drops_probabilistically(self):
        sim = Simulator(seed=7)
        a, b, link = two_hosts(sim, loss=0.5)
        received = []
        b.udp.bind(53, lambda payload, src, sport, dst: received.append(payload))
        sock = a.udp.bind_ephemeral(lambda *args: None)
        for _ in range(200):
            sock.send(b"p", IPv4Address("10.0.0.2"), 53)
        sim.run()
        assert 60 < len(received) < 140  # ~100 expected

    def test_loss_probability_validated(self):
        sim = Simulator()
        a, b = Node(sim, "a"), Node(sim, "b")
        with pytest.raises(ValueError):
            Link(sim, a, b, loss=1.5)

    def test_other_end_lookup(self):
        sim = Simulator()
        a, b, link = two_hosts(sim)
        assert link.other(a) is b
        assert link.other(b) is a
        with pytest.raises(ValueError):
            link.other(Node(sim, "c"))

    def test_duplicated_packet_keeps_its_span(self):
        """The duplication fault copies the whole packet; a twin without
        the span would orphan its receive-side spans under ``--obs``."""
        sim = Simulator()
        a, b, link = two_hosts(sim)
        link.duplicate_prob = 1.0
        arrivals = []
        b.filters.append(Hook.PREROUTING, target=lambda p: arrivals.append(p) or Verdict.ACCEPT)
        span = object()
        a.send(Packet(
            src=a.address, dst=b.address,
            segment=UdpDatagram(1000, 53, DnsPayload(make_query("x.com"))), span=span,
        ))
        sim.run()
        assert len(arrivals) == 2 and arrivals[0] is not arrivals[1]
        assert [packet.span for packet in arrivals] == [span, span]


class TestPacketRewrite:
    def test_with_message_keeps_flow_and_span_with_a_fresh_ttl(self):
        a, b = IPv4Address("10.0.0.1"), IPv4Address("10.0.0.2")
        span = object()
        original = Packet(
            src=a, dst=b, ttl=3, span=span,
            segment=UdpDatagram(1000, 53, DnsPayload(make_query("x.com", msg_id=1))),
        )
        message = make_query("y.com", msg_id=2)

        def flow(packet):
            return packet.src, packet.dst, packet.segment.sport, packet.segment.dport

        onward = original.with_message(message)
        assert flow(onward) == (a, b, 1000, 53)
        assert onward.segment.payload.message is message
        assert onward.ttl == 64 and onward.span is span
        reply = original.with_message(message, src=b, dst=a, sport=53, dport=1000)
        assert flow(reply) == (b, a, 53, 1000)
        assert reply.span is span


class TestRouting:
    def build_chain(self, sim):
        """lrs -- router -- ans, with the router forwarding both ways."""
        lrs = Node(sim, "lrs")
        router = Node(sim, "router")
        ans = Node(sim, "ans")
        lrs.add_address("10.1.0.1")
        router.add_address("10.1.0.254")
        router.add_address("10.2.0.254")
        ans.add_address("10.2.0.1")
        left = Link(sim, lrs, router, delay=0.001)
        right = Link(sim, router, ans, delay=0.001)
        lrs.set_default_route(left)
        ans.set_default_route(right)
        router.add_route("10.1.0.0/16", left)
        router.add_route("10.2.0.0/16", right)
        return lrs, router, ans

    def test_transit_forwarding(self):
        sim = Simulator()
        lrs, router, ans = self.build_chain(sim)
        got = []
        ans.udp.bind(53, lambda payload, src, sport, dst: got.append((payload, src)))
        sock = lrs.udp.bind_ephemeral(lambda *args: None)
        sock.send(b"query", IPv4Address("10.2.0.1"), 53)
        sim.run()
        assert got == [(b"query", IPv4Address("10.1.0.1"))]
        assert router.packets_forwarded == 1

    def test_transit_filter_drop(self):
        sim = Simulator()
        lrs, router, ans = self.build_chain(sim)
        router.filters.append(Hook.FORWARD, verdict=Verdict.DROP)
        got = []
        ans.udp.bind(53, lambda payload, src, sport, dst: got.append(payload))
        lrs.udp.bind_ephemeral(lambda *args: None).send(b"x", IPv4Address("10.2.0.1"), 53)
        sim.run()
        assert got == []
        assert router.packets_dropped == 1

    def test_transit_filter_deliver_hijacks_packet(self):
        sim = Simulator()
        lrs, router, ans = self.build_chain(sim)
        router.filters.append(Hook.FORWARD, verdict=Verdict.DELIVER)
        hijacked = []
        router.udp.bind(53, lambda payload, src, sport, dst: hijacked.append(dst))
        lrs.udp.bind_ephemeral(lambda *args: None).send(b"x", IPv4Address("10.2.0.1"), 53)
        sim.run()
        # delivered locally even though dst is the ANS address
        assert hijacked == [IPv4Address("10.2.0.1")]

    def test_no_route_drops(self):
        sim = Simulator()
        lrs, router, ans = self.build_chain(sim)
        router.routes = []  # strip routing table; router is multi-homed
        lrs.udp.bind_ephemeral(lambda *args: None).send(b"x", IPv4Address("10.2.0.1"), 53)
        sim.run()
        assert router.packets_dropped == 1

    def test_send_without_route_raises(self):
        sim = Simulator()
        lonely = Node(sim, "lonely")
        lonely.add_address("10.0.0.9")
        with pytest.raises(RoutingError):
            lonely.udp.bind_ephemeral(lambda *args: None).send(b"x", IPv4Address("1.1.1.1"), 1)

    def test_longest_prefix_match(self):
        sim = Simulator()
        hub = Node(sim, "hub")
        hub.add_address("10.0.0.254")
        near = Node(sim, "near")
        near.add_address("10.0.1.1")
        far = Node(sim, "far")
        far.add_address("10.0.1.129")
        l1 = Link(sim, hub, near)
        l2 = Link(sim, hub, far)
        hub.add_route("10.0.1.0/24", l1)
        hub.add_route("10.0.1.128/25", l2)
        assert hub.route_for(IPv4Address("10.0.1.5")) is l1
        assert hub.route_for(IPv4Address("10.0.1.200")) is l2


class TestUdp:
    def test_spoofed_source_goes_unchecked(self):
        """The core vulnerability: UDP src is whatever the sender claims."""
        sim = Simulator()
        a, b, _ = two_hosts(sim)
        seen = []
        b.udp.bind(53, lambda payload, src, sport, dst: seen.append(src))
        sock = a.udp.bind_ephemeral(lambda *args: None)
        sock.send(b"evil", IPv4Address("10.0.0.2"), 53, src=IPv4Address("8.8.8.8"))
        sim.run()
        assert seen == [IPv4Address("8.8.8.8")]

    def test_dns_message_payload_round_trip(self):
        sim = Simulator()
        a, b, _ = two_hosts(sim)
        seen = []
        b.udp.bind(53, lambda payload, src, sport, dst: seen.append(payload))
        a.udp.bind_ephemeral(lambda *args: None).send(
            make_query("www.foo.com", msg_id=5), IPv4Address("10.0.0.2"), 53
        )
        sim.run()
        assert isinstance(seen[0], Message)
        assert seen[0].header.msg_id == 5

    def test_double_bind_rejected(self):
        sim = Simulator()
        a, _, _ = two_hosts(sim)
        a.udp.bind(53, lambda *args: None)
        with pytest.raises(SocketError):
            a.udp.bind(53, lambda *args: None)

    def test_specific_bind_preferred_over_wildcard(self):
        sim = Simulator()
        a, b, _ = two_hosts(sim)
        b.add_address("10.0.0.3")
        hits = []
        b.udp.bind(53, lambda p, s, sp, d: hits.append("wildcard"))
        b.udp.bind(53, lambda p, s, sp, d: hits.append("specific"), ip=IPv4Address("10.0.0.3"))
        sock = a.udp.bind_ephemeral(lambda *args: None)
        sock.send(b"1", IPv4Address("10.0.0.3"), 53)
        sock.send(b"2", IPv4Address("10.0.0.2"), 53)
        sim.run()
        assert sorted(hits) == ["specific", "wildcard"]

    def test_ephemeral_ports_skip_a_socket_that_is_still_bound(self):
        """A socket held while its neighbours cycle through the range (a
        zombie's, a request waiting out a retry timer) keeps its port: the
        bare counter came round to it and ``bind`` raised at bind 16,384."""
        sim = Simulator()
        a, b, _ = two_hosts(sim)
        replies = []
        kept = a.udp.bind_ephemeral(lambda p, s, sp, d: replies.append(p))
        handed_out = []
        for _ in range(2 * EPHEMERAL_PORTS):
            sock = a.udp.bind_ephemeral(lambda *args: None)
            handed_out.append(sock.port)
            sock.close()
        assert kept.port == EPHEMERAL_BASE and kept.port not in handed_out
        # still in rotation over the rest of the range, in order
        assert handed_out[: EPHEMERAL_PORTS - 1] == list(range(EPHEMERAL_BASE + 1, 65536))
        assert handed_out[EPHEMERAL_PORTS - 1] == EPHEMERAL_BASE + 1
        server = b.udp.bind(53, lambda p, src, sport, d: server.send(p, src, sport))
        kept.send(b"still mine", IPv4Address("10.0.0.2"), 53)
        sim.run()
        assert replies == [b"still mine"]

    def test_ephemeral_bind_fails_only_when_the_whole_range_is_bound(self):
        sim = Simulator()
        a, _, _ = two_hosts(sim)
        socks = [a.udp.bind_ephemeral(lambda *args: None) for _ in range(EPHEMERAL_PORTS)]
        assert sorted(sock.port for sock in socks) == list(range(EPHEMERAL_BASE, 65536))
        with pytest.raises(SocketError, match="every ephemeral UDP port"):
            a.udp.bind_ephemeral(lambda *args: None)
        socks[1234].close()
        assert a.udp.bind_ephemeral(lambda *args: None).port == socks[1234].port

    def test_unmatched_port_counted(self):
        sim = Simulator()
        a, b, _ = two_hosts(sim)
        a.udp.bind_ephemeral(lambda *args: None).send(b"x", IPv4Address("10.0.0.2"), 9999)
        sim.run()
        assert b.udp.datagrams_unmatched == 1

    def test_closed_socket_stops_receiving_and_sending(self):
        sim = Simulator()
        a, b, _ = two_hosts(sim)
        got = []
        sock_b = b.udp.bind(53, lambda p, s, sp, d: got.append(p))
        sock_b.close()
        sock_a = a.udp.bind_ephemeral(lambda *args: None)
        sock_a.send(b"x", IPv4Address("10.0.0.2"), 53)
        sim.run()
        assert got == []
        sock_a.close()
        with pytest.raises(SocketError):
            sock_a.send(b"x", IPv4Address("10.0.0.2"), 53)

    def test_reply_uses_observed_source(self):
        sim = Simulator()
        a, b, _ = two_hosts(sim)

        def echo(payload, src, sport, dst):
            server_sock.send(payload, src, sport)

        server_sock = b.udp.bind(53, echo)
        replies = []
        client = a.udp.bind_ephemeral(lambda p, s, sp, d: replies.append(p))
        client.send(b"ping", IPv4Address("10.0.0.2"), 53)
        sim.run()
        assert replies == [b"ping"]
