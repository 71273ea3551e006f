"""Unit tests for the authoritative server."""

from ipaddress import IPv4Address

from repro.dns import AuthoritativeServer, Zone
from repro.dnswire import (
    MAX_UDP_PAYLOAD,
    Message,
    Name,
    Rcode,
    RRType,
    TXT,
    ResourceRecord,
    RRClass,
    make_query,
    soa_record,
)
from repro.netsim import Link, Node, Simulator


def standalone_server(**kwargs):
    sim = Simulator()
    server_node = Node(sim, "ans")
    server_node.add_address("203.0.113.53")
    client_node = Node(sim, "client")
    client_node.add_address("10.0.0.1")
    Link(sim, server_node, client_node, delay=0.0002)
    zone = Zone("foo.com")
    zone.add(soa_record("foo.com"))
    zone.add_a("www.foo.com", "198.51.100.80")
    zone.delegate("sub.foo.com", "ns1.sub.foo.com", "203.0.113.99")
    server = AuthoritativeServer(server_node, [zone], **kwargs)
    return sim, server, server_node, client_node, zone


def ask(sim, client_node, query, server_ip="203.0.113.53"):
    responses = []
    sock = client_node.udp.bind_ephemeral(
        lambda payload, src, sport, dst: responses.append(payload)
    )
    sock.send(query, IPv4Address(server_ip), 53)
    sim.run(until=sim.now + 1.0)
    sock.close()
    return responses


class TestUdpService:
    def test_authoritative_answer(self):
        sim, server, _, client, _ = standalone_server()
        responses = ask(sim, client, make_query("www.foo.com", msg_id=1))
        assert len(responses) == 1
        response = responses[0]
        assert response.header.aa and response.header.qr
        assert response.answers[0].rdata.address == IPv4Address("198.51.100.80")

    def test_referral_not_authoritative(self):
        sim, server, _, client, _ = standalone_server()
        (response,) = ask(sim, client, make_query("deep.sub.foo.com", msg_id=2))
        assert not response.header.aa
        assert response.authorities[0].rtype == RRType.NS
        assert response.additionals[0].rtype == RRType.A
        assert server.referrals_sent == 1

    def test_nxdomain(self):
        sim, server, _, client, _ = standalone_server()
        (response,) = ask(sim, client, make_query("ghost.foo.com", msg_id=3))
        assert response.header.rcode == Rcode.NXDOMAIN
        assert response.authorities[0].rtype == RRType.SOA

    def test_out_of_zone_refused(self):
        sim, server, _, client, _ = standalone_server()
        (response,) = ask(sim, client, make_query("www.bar.org", msg_id=4))
        assert response.header.rcode == Rcode.REFUSED

    def test_cname_chase_within_zone(self):
        sim, server, _, client, zone = standalone_server()
        from repro.dnswire import CNAME

        zone.add(
            ResourceRecord(
                Name.from_text("alias.foo.com"), RRType.CNAME, RRClass.IN, 60,
                CNAME(Name.from_text("www.foo.com")),
            )
        )
        (response,) = ask(sim, client, make_query("alias.foo.com", msg_id=5))
        types = [rr.rtype for rr in response.answers]
        assert RRType.CNAME in types and RRType.A in types

    def test_big_response_truncated_over_udp(self):
        sim, server, _, client, zone = standalone_server()
        for i in range(6):
            zone.add(
                ResourceRecord(
                    Name.from_text("big.foo.com"), RRType.TXT, RRClass.IN, 60,
                    TXT.single(bytes(200)),
                )
            )
        (response,) = ask(sim, client, make_query("big.foo.com", RRType.TXT, msg_id=6))
        assert response.header.tc
        assert response.wire_size() <= MAX_UDP_PAYLOAD

    def test_ttl_override(self):
        sim, server, _, client, _ = standalone_server(answer_ttl_override=0)
        (response,) = ask(sim, client, make_query("www.foo.com", msg_id=7))
        assert response.answers[0].ttl == 0

    def test_overload_drops_requests(self):
        sim, server, node, client, _ = standalone_server(udp_request_cost=0.1)
        node.cpu.queue_limit = 0.15
        sock = client.udp.bind_ephemeral(lambda *args: None)
        for i in range(10):
            sock.send(make_query("www.foo.com", msg_id=100 + i), IPv4Address("203.0.113.53"), 53)
        sim.run(until=5.0)
        assert server.requests_dropped > 0

    def test_malformed_query_ignored(self):
        sim, server, _, client, _ = standalone_server()
        responses = ask(sim, client, make_query("www.foo.com", msg_id=8))
        # raw bytes payload (not a parsed Message) must be ignored, not crash
        sock = client.udp.bind_ephemeral(lambda *a: None)
        sock.send(b"\x00garbage", IPv4Address("203.0.113.53"), 53)
        sim.run(until=sim.now + 0.5)
        assert server.requests_served == 1  # only the valid one

    def test_response_source_is_queried_address(self):
        sim, server, node, client, _ = standalone_server()
        node.add_address("203.0.113.54")
        sources = []
        sock = client.udp.bind_ephemeral(lambda p, src, sp, d: sources.append(src))
        sock.send(make_query("www.foo.com", msg_id=9), IPv4Address("203.0.113.54"), 53)
        sim.run(until=sim.now + 1.0)
        assert sources == [IPv4Address("203.0.113.54")]


class TestTcpService:
    def test_query_over_tcp(self):
        from repro.dns import StreamFramer, frame

        sim, server, _, client, _ = standalone_server()
        query = make_query("www.foo.com", msg_id=21)
        framer = StreamFramer()
        answers = []

        def on_data(conn, data):
            for message in framer.feed(data):
                answers.append(message)
                conn.close()

        client.tcp.connect(
            IPv4Address("203.0.113.53"), 53,
            on_established=lambda conn: conn.send(frame(query)),
            on_data=on_data,
        )
        sim.run(until=2.0)
        assert len(answers) == 1
        assert answers[0].header.msg_id == 21
        assert not answers[0].header.tc  # TCP responses are never truncated

    def test_tcp_can_carry_big_response(self):
        from repro.dns import StreamFramer, frame

        sim, server, _, client, zone = standalone_server()
        for _ in range(6):
            zone.add(
                ResourceRecord(
                    Name.from_text("big.foo.com"), RRType.TXT, RRClass.IN, 60,
                    TXT.single(bytes(200)),
                )
            )
        framer = StreamFramer()
        answers = []

        def on_data(conn, data):
            for message in framer.feed(data):
                answers.append(message)
                conn.close()

        client.tcp.connect(
            IPv4Address("203.0.113.53"), 53,
            on_established=lambda conn: conn.send(frame(make_query("big.foo.com", RRType.TXT))),
            on_data=on_data,
        )
        sim.run(until=2.0)
        assert len(answers) == 1
        assert answers[0].wire_size() > MAX_UDP_PAYLOAD
        assert len(answers[0].answers) == 6

    def test_tcp_disabled(self):
        sim = Simulator()
        node = Node(sim, "ans")
        node.add_address("203.0.113.53")
        zone = Zone("foo.com")
        zone.add_a("www.foo.com", "1.2.3.4")
        AuthoritativeServer(node, [zone], serve_tcp=False)
        assert node.tcp._listeners == {}


def wild_zone(origin="foo.com", www="198.51.100.80") -> Zone:
    """``test_zone_extras``' wildcard zone: four edits, whatever the origin."""
    zone = Zone(origin)
    zone.add(soa_record(origin))
    zone.add_a(f"www.{origin}", www)
    zone.add_a(f"*.{origin}", "198.51.100.99")
    zone.add_a(f"exact.dyn.{origin}", "198.51.100.50")
    return zone


def wild_server(**kwargs):
    zone = wild_zone()
    return AuthoritativeServer(Node(Simulator(), "ans"), [zone], serve_tcp=False, **kwargs), zone


class TestRepeatedQuestion:
    """A repeated question is answered from a frozen prototype; every edit
    that can change the answer is seen by the next one."""

    def answer(self, server, qname, qtype=RRType.A, msg_id=11):
        """The server's answer, checked against its reference slow path."""
        query = make_query(qname, qtype, msg_id=msg_id)
        response = server.respond(query)
        reference = server._respond(query)
        assert response == reference and response.encode() == reference.encode()
        return response

    def test_a_repeat_is_the_prototype_re_headed(self):
        server, _ = wild_server()
        first = self.answer(server, "www.foo.com", msg_id=1)
        again = server.respond(make_query("www.foo.com", msg_id=2))
        assert again.header.msg_id == 2 and again.answers == first.answers
        # the kept response's own memo and records, under the new id
        assert again._body is not None and again._body is first._body
        assert again.answers is first.answers
        # the slow path's counters, bumped by the hit too
        assert (server.requests_served, server.answers_sent) == (3, 3)

    def test_dns_0x20_casing_gets_its_own_echo(self):
        server, _ = wild_server()
        self.answer(server, "anything.foo.com")
        mixed = self.answer(server, "AnyThing.FOO.com")
        assert mixed.questions[0].qname.labels == (b"AnyThing", b"FOO", b"com")
        assert mixed.answers[0].name.labels == (b"AnyThing", b"FOO", b"com")

    def test_zone_add_is_seen(self):
        server, zone = wild_server()
        self.answer(server, "www.foo.com", RRType.TXT)
        zone.add(ResourceRecord(Name.from_text("www.foo.com"), RRType.TXT, RRClass.IN, 60,
                                TXT.single(b"new")))
        assert self.answer(server, "www.foo.com", RRType.TXT).answers

    def test_a_deeper_wildcard_is_seen(self):
        server, zone = wild_server()
        before = self.answer(server, "sub.exact.dyn.foo.com")
        assert before.header.rcode == Rcode.NXDOMAIN
        zone.add_a("*.exact.dyn.foo.com", "198.51.100.51")
        after = self.answer(server, "sub.exact.dyn.foo.com")
        assert after.answers[0].rdata.address == IPv4Address("198.51.100.51")

    def test_a_delegation_and_its_glue_are_seen(self):
        server, zone = wild_server()
        self.answer(server, "host.child.foo.com")
        self.answer(server, "ns1.glue.exact.dyn.foo.com")  # NXDOMAIN below exact
        zone.delegate("child.foo.com", "ns1.glue.exact.dyn.foo.com", "203.0.113.7")
        referral = self.answer(server, "host.child.foo.com")
        assert referral.authorities[0].rtype == RRType.NS
        glue = self.answer(server, "ns1.glue.exact.dyn.foo.com")
        assert glue.answers[0].rdata.address == IPv4Address("203.0.113.7")

    # the zones below have as many edits as the one they displace, so only
    # which zone answers tells the two apart

    def test_a_replaced_zone_list_is_seen(self):
        server, _ = wild_server()
        self.answer(server, "www.foo.com")
        server.zones = [wild_zone(www="192.0.2.1")]
        assert self.answer(server, "www.foo.com").answers[0].rdata.address == IPv4Address(
            "192.0.2.1"
        )

    def test_a_zone_appended_in_place_is_seen(self):
        server, _ = wild_server()
        assert self.answer(server, "www.deep.foo.com").answers  # the apex wildcard
        server.zones.append(wild_zone("deep.foo.com", www="192.0.2.2"))
        server.zones.sort(key=lambda z: len(z.origin), reverse=True)
        assert self.answer(server, "www.deep.foo.com").answers[0].rdata.address == IPv4Address(
            "192.0.2.2"
        )

    def test_a_new_ttl_override_is_seen(self):
        server, _ = wild_server()
        assert self.answer(server, "www.foo.com").answers[0].ttl == 3600
        server.answer_ttl_override = 0
        assert self.answer(server, "www.foo.com").answers[0].ttl == 0
