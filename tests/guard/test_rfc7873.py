"""Tests for the RFC 7873 DNS-cookie extension (the standardised scheme)."""

from ipaddress import IPv4Address

import pytest

from repro.dns import AnsSimulator, LrsSimulator
from repro.dnswire import Message, make_query
from repro.guard.rfc7873 import (
    CLIENT_COOKIE_LENGTH,
    EdnsCookieClientShim,
    EdnsCookieGuard,
    EdnsCookieServer,
    attach_edns_cookie,
    extract_edns_cookie,
    strip_edns_cookie,
)
from repro.netsim import Link, Node, Simulator

CLIENT_IP = IPv4Address("10.0.0.10")
ANS_IP = IPv4Address("203.0.113.53")


class TestCookieCodec:
    def test_attach_extract_round_trip(self):
        query = make_query("www.foo.com", msg_id=1)
        attach_edns_cookie(query, b"\x01" * 8, b"\x02" * 16)
        decoded = Message.decode(query.encode())
        assert extract_edns_cookie(decoded) == (b"\x01" * 8, b"\x02" * 16)

    def test_client_cookie_only(self):
        query = attach_edns_cookie(make_query("a.com"), b"\x07" * 8)
        assert extract_edns_cookie(query) == (b"\x07" * 8, b"")

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            attach_edns_cookie(make_query("a.com"), b"short")

    def test_strip(self):
        query = attach_edns_cookie(make_query("a.com"), b"\x07" * 8)
        strip_edns_cookie(query)
        assert extract_edns_cookie(query) is None

    def test_plain_message_has_no_cookie(self):
        assert extract_edns_cookie(make_query("a.com")) is None


class TestServerCookie:
    def test_verify_round_trip(self):
        server = EdnsCookieServer(b"test-key")
        cc = b"\x11" * 8
        sc = server.server_cookie(cc, CLIENT_IP)
        assert server.verify(cc, sc, CLIENT_IP)

    def test_binds_to_address(self):
        server = EdnsCookieServer(b"test-key")
        cc = b"\x11" * 8
        sc = server.server_cookie(cc, CLIENT_IP)
        assert not server.verify(cc, sc, IPv4Address("10.0.0.11"))

    def test_binds_to_client_cookie(self):
        server = EdnsCookieServer(b"test-key")
        sc = server.server_cookie(b"\x11" * 8, CLIENT_IP)
        assert not server.verify(b"\x22" * 8, sc, CLIENT_IP)

    def test_keys_differ(self):
        cc = b"\x11" * 8
        a = EdnsCookieServer(b"key-a").server_cookie(cc, CLIENT_IP)
        b = EdnsCookieServer(b"key-b").server_cookie(cc, CLIENT_IP)
        assert a != b


def build_testbed(no_cookie_policy="drop"):
    """client -- shim -- guard -- ans, all inline."""
    sim = Simulator(seed=1)
    client = Node(sim, "client")
    client.add_address(CLIENT_IP)
    shim_node = Node(sim, "shim")
    shim_node.add_address("10.0.0.1")
    guard_node = Node(sim, "guard")
    guard_node.add_address("203.0.113.1")
    ans_node = Node(sim, "ans")
    ans_node.add_address(ANS_IP)

    l1 = Link(sim, client, shim_node, delay=0.00005)
    l2 = Link(sim, shim_node, guard_node, delay=0.0001)
    l3 = Link(sim, guard_node, ans_node, delay=0.00001)
    client.set_default_route(l1)
    shim_node.add_route(f"{CLIENT_IP}/32", l1)
    shim_node.set_default_route(l2)
    guard_node.add_route(f"{CLIENT_IP}/32", l2)
    guard_node.add_route(f"{ANS_IP}/32", l3)
    ans_node.set_default_route(l3)

    ans = AnsSimulator(ans_node, mode="answer")
    guard = EdnsCookieGuard(guard_node, ANS_IP, no_cookie_policy=no_cookie_policy)
    shim = EdnsCookieClientShim(shim_node)

    # an attacker node wired straight to the guard, bypassing the shim
    attacker = Node(sim, "attacker")
    attacker.add_address("10.9.9.9")
    l4 = Link(sim, attacker, guard_node, delay=0.0001)
    attacker.set_default_route(l4)
    guard_node.add_route("10.9.9.9/32", l4)
    return sim, client, shim, guard, ans, attacker


class TestEndToEnd:
    def test_queries_complete_with_cookie_learning(self):
        sim, client, shim, guard, ans, attacker = build_testbed()
        lrs = LrsSimulator(client, ANS_IP, workload="plain")
        lrs.start()
        sim.run(until=0.5)
        lrs.stop()
        assert lrs.stats.completed > 100
        assert guard.cookies_granted == 1  # learned once, cached after
        assert shim.grants_learned == 1
        assert guard.valid_cookies >= lrs.stats.completed

    def test_ans_sees_classic_dns(self):
        sim, client, shim, guard, ans, attacker = build_testbed()
        seen = []
        original = ans.respond

        def spy(query):
            seen.append(extract_edns_cookie(query))
            return original(query)

        ans.respond = spy
        lrs = LrsSimulator(client, ANS_IP, workload="plain")
        lrs.start()
        sim.run(until=0.1)
        lrs.stop()
        assert seen and all(cookie is None for cookie in seen)

    def test_spoofed_queries_dropped(self):
        from repro.netsim import DnsPayload, Packet, UdpDatagram

        sim, client, shim, guard, ans, attacker = build_testbed()
        served0 = ans.requests_served
        # spoofed plain queries (no cookie at all) under hard enforcement
        for i in range(50):
            query = make_query("www.foo.com", msg_id=i)
            packet = Packet(
                src=IPv4Address(f"172.18.0.{i % 250 + 1}"),
                dst=ANS_IP,
                segment=UdpDatagram(40000, 53, DnsPayload(query)),
            )
            attacker.send(packet)
        sim.run(until=0.2)
        assert guard.no_cookie_drops == 50
        assert ans.requests_served == served0

    def test_forged_server_cookie_dropped(self):
        from repro.netsim import DnsPayload, Packet, UdpDatagram

        sim, client, shim, guard, ans, attacker = build_testbed()
        query = make_query("www.foo.com", msg_id=9)
        attach_edns_cookie(query, b"\x09" * 8, b"\xff" * 16)
        packet = Packet(
            src=IPv4Address("172.18.0.99"),
            dst=ANS_IP,
            segment=UdpDatagram(40000, 53, DnsPayload(query)),
        )
        attacker.send(packet)
        sim.run(until=0.2)
        assert guard.invalid_drops == 1
        assert ans.requests_served == 0

    def test_cookie_minted_with_a_public_constant_is_dropped(self):
        """The guard's key is drawn from the seeded rng: the constant the
        core used to fall back to (md5(b"rfc7873")) must not mint a valid
        server cookie for a spoofed source."""
        import hashlib

        from repro.netsim import DnsPayload, Packet, UdpDatagram

        sim, client, shim, guard, ans, attacker = build_testbed()
        spoofed = IPv4Address("172.18.0.99")
        client_cookie = b"\x09" * 8
        forged = EdnsCookieServer(hashlib.md5(b"rfc7873").digest()).server_cookie(
            client_cookie, spoofed
        )
        query = make_query("www.foo.com", msg_id=9)
        attach_edns_cookie(query, client_cookie, forged)
        attacker.send(
            Packet(
                src=spoofed,
                dst=ANS_IP,
                segment=UdpDatagram(40000, 53, DnsPayload(query)),
            )
        )
        sim.run(until=0.2)
        assert guard.invalid_drops == 1
        assert ans.requests_served == 0

    def test_first_contact_costs_one_extra_round_trip(self):
        sim, client, shim, guard, ans, attacker = build_testbed()
        lrs = LrsSimulator(client, ANS_IP, workload="plain")
        lrs.record_latencies = True
        lrs.start()
        sim.run(until=0.05)
        lrs.stop()
        assert lrs.latencies[0] > lrs.latencies[-1] * 1.5


class TestSpanAndDropAccounting:
    def test_span_survives_every_reemitted_packet(self):
        """A query's span must reach the ANS across the shim's stamp, the
        guard's grant, the shim's held re-send and the guard's forward."""
        from repro.netsim import DnsPayload, Packet, UdpDatagram

        sim, client, shim, guard, ans, attacker = build_testbed()
        marker = object()
        at_ans = []
        deliver = ans.node.deliver
        ans.node.deliver = lambda packet: (at_ans.append(packet.span), deliver(packet))
        client.send(
            Packet(
                src=CLIENT_IP,
                dst=ANS_IP,
                segment=UdpDatagram(40000, 53, DnsPayload(make_query("www.foo.com"))),
                span=marker,
            )
        )
        sim.run(until=0.1)
        assert guard.cookies_granted == 1 and shim.grants_learned == 1
        assert at_ans == [marker]

    def test_cpu_overflow_and_unroutable_grant_are_counted(self):
        from repro.netsim import DnsPayload, Packet, UdpDatagram

        sim, client, shim, guard, ans, attacker = build_testbed()
        # client-cookie-only query from a source the guard has no route to:
        # the grant cannot be delivered
        query = attach_edns_cookie(make_query("www.foo.com", msg_id=1), b"\x05" * 8)
        attacker.send(
            Packet(
                src=IPv4Address("172.18.0.7"),
                dst=ANS_IP,
                segment=UdpDatagram(40000, 53, DnsPayload(query)),
            )
        )
        sim.run(until=0.1)
        assert guard.cookies_granted == 1
        assert guard.unroutable_replies == 1
        assert guard.overload_drops == 0
        # a burst past the CPU queue limit: the overflow is counted, as
        # RemoteDnsGuard counts it
        guard.node.cpu.queue_limit = 0.0
        for i in range(20):
            attacker.send(
                Packet(
                    src=IPv4Address("172.18.0.8"),
                    dst=ANS_IP,
                    segment=UdpDatagram(
                        40000, 53, DnsPayload(make_query("www.foo.com", msg_id=i))
                    ),
                )
            )
        sim.run(until=0.2)
        assert guard.no_cookie_drops == 20
        assert guard.overload_drops > 0
        assert guard.overload_drops == guard.node.cpu.jobs_dropped
