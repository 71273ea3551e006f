"""BIND-style smoothed-RTT server selection in the recursive resolver."""

from ipaddress import IPv4Address

import pytest

from repro.dns import AuthoritativeServer, LocalRecursiveServer, Zone
from repro.dnswire import RRType, soa_record
from repro.netsim import Link, Node, Simulator, parse_address

NEAR_IP = IPv4Address("192.0.2.1")
FAR_IP = IPv4Address("192.0.2.2")
LRS_IP = IPv4Address("10.0.0.53")


def dual_server_setup(*, near_delay=0.0005, far_delay=0.02, seed=0):
    """Two authoritative servers for the same zone at different distances."""
    sim = Simulator(seed=seed)
    hub = Node(sim, "hub")
    hub.add_address("10.255.255.1")

    def attach(name, ip, delay):
        node = Node(sim, name)
        node.add_address(ip)
        link = Link(sim, node, hub, delay=delay)
        node.set_default_route(link)
        hub.add_route(f"{ip}/32", link)
        return node

    zone_data = Zone(".")
    zone_data.add(soa_record("."))
    zone_data.add_a("www.example.", "198.51.100.80", ttl=0)  # TTL 0: re-query

    near = AuthoritativeServer(attach("near", NEAR_IP, near_delay), [zone_data])
    far = AuthoritativeServer(attach("far", FAR_IP, far_delay), [zone_data])
    lrs_node = attach("lrs", LRS_IP, 0.0001)
    lrs = LocalRecursiveServer(lrs_node, [FAR_IP, NEAR_IP], timeout=0.2)
    return sim, lrs, near, far


def resolve(sim, lrs, name="www.example."):
    results = []
    lrs.resolve(name, RRType.A, results.append)
    sim.run(until=sim.now + 5.0)
    assert results
    return results[0]


class TestServerSelection:
    def test_learns_rtt_estimates(self):
        sim, lrs, near, far = dual_server_setup()
        resolve(sim, lrs)
        # at least one server has a measured RTT now
        assert lrs.server_rtt(FAR_IP) is not None or lrs.server_rtt(NEAR_IP) is not None

    def test_untried_servers_get_a_chance(self):
        """Both servers are eventually sampled across repeated queries."""
        sim, lrs, near, far = dual_server_setup()
        for _ in range(4):
            resolve(sim, lrs)
        assert lrs.server_rtt(NEAR_IP) is not None
        assert lrs.server_rtt(FAR_IP) is not None

    def test_prefers_faster_server_once_learned(self):
        sim, lrs, near, far = dual_server_setup()
        for _ in range(5):
            resolve(sim, lrs)
        near_before, far_before = near.requests_served, far.requests_served
        for _ in range(10):
            resolve(sim, lrs)
        # steady state: the near server takes (essentially) all the traffic
        assert near.requests_served - near_before >= 9
        assert far.requests_served - far_before <= 1

    def test_ranking_orders_by_srtt(self):
        sim, lrs, near, far = dual_server_setup()
        lrs.note_rtt(NEAR_IP, 0.001)
        lrs.note_rtt(FAR_IP, 0.040)
        assert lrs.rank_servers([FAR_IP, NEAR_IP]) == [NEAR_IP, FAR_IP]

    def test_timeout_penalty_triggers_failover(self):
        sim, lrs, near, far = dual_server_setup()
        for _ in range(5):
            resolve(sim, lrs)
        # the near (preferred) server goes dark
        near.node.udp._sockets.clear()
        result = resolve(sim, lrs)
        assert result.ok  # failed over to the far server
        assert lrs.server_rtt(NEAR_IP) > lrs.server_rtt(FAR_IP)

    def test_srtt_smoothing(self):
        sim, lrs, near, far = dual_server_setup()
        near_ip = parse_address(NEAR_IP)  # the resolver notes what packets carry
        lrs.note_rtt(near_ip, 0.010)
        lrs.note_rtt(near_ip, 0.020)
        assert lrs.server_rtt(NEAR_IP) == pytest.approx(0.7 * 0.010 + 0.3 * 0.020)
