"""Node internals: multi-homing, routing fallbacks."""

import pytest

from repro.netsim import Link, Node, RoutingError, Simulator, parse_address


class TestAddressing:
    def test_primary_address_is_first(self):
        sim = Simulator()
        node = Node(sim, "n")
        node.add_address("10.0.0.1")
        node.add_address("10.0.0.2")
        assert node.address == parse_address("10.0.0.1")

    def test_address_without_any_raises(self):
        sim = Simulator()
        with pytest.raises(RoutingError):
            Node(sim, "empty").address

    def test_delivers_to_each_own_address_and_no_other(self):
        sim = Simulator()
        node = Node(sim, "n")
        node.add_address("10.0.0.1")
        node.add_address("10.0.0.2")
        peer = Node(sim, "peer")
        peer.add_address("192.0.2.1")
        Link(sim, node, peer)
        got = []
        node.udp.bind(53, lambda payload, src, sport, dst: got.append(dst))
        sock = peer.udp.bind_ephemeral(lambda *args: None)
        for dst in ("10.0.0.1", "10.0.0.2", "198.18.0.7"):
            sock.send(b"x", parse_address(dst), 53)
        sim.run(until=1.0)
        assert got == [parse_address("10.0.0.1"), parse_address("10.0.0.2")]
        assert node.packets_delivered == 2


class TestRoutingFallbacks:
    def test_single_homed_host_uses_only_link(self):
        sim = Simulator()
        a = Node(sim, "a")
        a.add_address("10.0.0.1")
        b = Node(sim, "b")
        b.add_address("10.0.0.2")
        link = Link(sim, a, b)
        # no default route set: the sole link is used implicitly
        assert a.route_for(parse_address("203.0.113.1")) is link

    def test_multi_homed_without_routes_has_no_route(self):
        sim = Simulator()
        hub = Node(sim, "hub")
        hub.add_address("10.0.0.254")
        x = Node(sim, "x")
        x.add_address("10.0.1.1")
        y = Node(sim, "y")
        y.add_address("10.0.2.1")
        Link(sim, hub, x)
        Link(sim, hub, y)
        assert hub.route_for(parse_address("203.0.113.1")) is None

    def test_default_route_beats_only_link_heuristic(self):
        sim = Simulator()
        hub = Node(sim, "hub")
        hub.add_address("10.0.0.254")
        x = Node(sim, "x")
        x.add_address("10.0.1.1")
        y = Node(sim, "y")
        y.add_address("10.0.2.1")
        Link(sim, hub, x)
        l2 = Link(sim, hub, y)
        hub.set_default_route(l2)
        assert hub.route_for(parse_address("203.0.113.1")) is l2

    def test_ttl_expiry_drops_in_transit(self):
        sim = Simulator()
        nodes = [Node(sim, f"r{i}") for i in range(4)]
        for i, node in enumerate(nodes):
            node.add_address(f"10.0.{i}.1")
        links = [Link(sim, nodes[i], nodes[i + 1]) for i in range(3)]
        for i in range(3):
            nodes[i].set_default_route(links[i])
            if i > 0:
                nodes[i].add_route(f"10.0.3.0/24", links[i])
        got = []
        nodes[3].udp.bind(53, lambda p, s, sp, d: got.append(p))
        from repro.netsim import Packet, UdpDatagram
        from repro.dnswire import make_query

        # TTL 1: dies at the first router
        packet = Packet(
            src=parse_address("10.0.0.1"),
            dst=parse_address("10.0.3.1"),
            segment=UdpDatagram(1000, 53, make_query("x.com")),
            ttl=1,
        )
        nodes[0].send(packet)
        sim.run(until=1.0)
        assert got == []

    def test_counters(self):
        sim = Simulator()
        a = Node(sim, "a")
        a.add_address("10.0.0.1")
        b = Node(sim, "b")
        b.add_address("10.0.0.2")
        Link(sim, a, b)
        b.udp.bind(53, lambda *args: None)
        a.udp.bind_ephemeral(lambda *args: None).send(b"x", parse_address("10.0.0.2"), 53)
        sim.run(until=1.0)
        assert b.packets_delivered == 1
        assert b.packets_forwarded == 0
