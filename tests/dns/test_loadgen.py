"""Unit tests for the ANS/LRS load simulators."""

from ipaddress import IPv4Address

import pytest

from repro.dns import AnsSimulator, LrsSimulator, TcpLoadClient
from repro.dnswire import Message, Name, Question, RRClass, RRType, make_query
from repro.netsim import Link, Node, Simulator

ANS_IP = IPv4Address("203.0.113.53")


def direct_pair(seed=0, **ans_kwargs):
    """Client and ANS simulator joined by one link (no guard)."""
    sim = Simulator(seed=seed)
    client = Node(sim, "client")
    client.add_address("10.0.0.1")
    ans_node = Node(sim, "ans")
    ans_node.add_address(ANS_IP)
    Link(sim, client, ans_node, delay=0.0002)
    ans = AnsSimulator(ans_node, **ans_kwargs)
    return sim, client, ans


class TestAnsSimulator:
    def test_answer_mode_returns_fixed_a(self):
        sim, client, ans = direct_pair(mode="answer", answer_address="198.51.100.10")
        got = []
        sock = client.udp.bind_ephemeral(lambda p, s, sp, d: got.append(p))
        sock.send(make_query("anything.example", msg_id=3), ANS_IP, 53)
        sim.run(until=1.0)
        assert got[0].answers[0].rdata.address == IPv4Address("198.51.100.10")
        assert got[0].header.aa

    def test_referral_mode_returns_ns_plus_glue(self):
        sim, client, ans = direct_pair(mode="referral")
        got = []
        sock = client.udp.bind_ephemeral(lambda p, s, sp, d: got.append(p))
        sock.send(make_query("www.foo.com", msg_id=4), ANS_IP, 53)
        sim.run(until=1.0)
        response = got[0]
        assert not response.answers
        assert response.authorities[0].rtype == RRType.NS
        assert response.additionals[0].rtype == RRType.A

    def test_a_two_question_reply_is_sent_at_its_own_size(self, monkeypatch):
        """Regression: the size table was keyed on the first question's name
        while the reply echoes every question — after one ordinary query, a
        two-question query for the same name went out at 73 bytes, not 115."""
        sim, client, ans = direct_pair(mode="answer")
        replies = []
        transmit = Link.transmit

        def spy(self, packet, sender):
            if sender is ans.node:
                replies.append((packet.size, packet.segment.payload))
            return transmit(self, packet, sender)

        monkeypatch.setattr(Link, "transmit", spy)
        sock = client.udp.bind_ephemeral(lambda *a: None)
        one = make_query("www.foo.com", msg_id=1)
        two = make_query("www.foo.com", msg_id=2)
        two.questions.append(Question(Name.from_text("mail.foo.com"), RRType.A, RRClass.IN))
        sock.send(one, ANS_IP, 53)
        sock.send(two, ANS_IP, 53)
        sim.run(until=1.0)
        assert [len(message.questions) for _, message in replies] == [1, 2]
        overhead = replies[0][0] - len(replies[0][1]._encode_once(True))
        for size, message in replies:
            assert size == len(message._encode_once(True)) + overhead
        assert replies[1][0] > replies[0][0]

    def test_a_mixed_case_query_has_its_casing_echoed_on_the_wire(self):
        """``Name`` equality folds case, a DNS-0x20 requester does not: the
        reply built for ``www.foo.com`` must not answer ``wWw.FoO.cOm``."""
        sim, client, ans = direct_pair(mode="answer")
        plain = ans.respond(make_query("www.foo.com", msg_id=1))
        mixed = ans.respond(make_query("wWw.FoO.cOm", msg_id=2))
        assert plain.questions == mixed.questions  # the same name to ``Name``
        assert b"\x03wWw\x03FoO\x03cOm" in mixed.encode()
        assert b"\x03www\x03foo\x03com" in plain.encode()
        assert mixed.encode() == mixed._encode_once(True)
        echoed = Message.decode(mixed.encode())
        assert echoed.question.qname.labels == (b"wWw", b"FoO", b"cOm")
        assert echoed.answers[0].name.labels == (b"wWw", b"FoO", b"cOm")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            direct_pair(mode="bogus")

    def test_capacity_is_request_cost_inverse(self):
        # a deeper queue so pacing, not socket-buffer drops, sets the rate
        sim, client, ans = direct_pair(request_cost=1.0 / 1000.0, queue_limit=0.05)
        # a timeout above the worst queueing delay, so pacing is the limit
        lrs = LrsSimulator(client, ANS_IP, workload="plain", concurrency=16, timeout=0.1)
        lrs.start()
        sim.run(until=0.2)
        lrs.stats.begin_window(sim.now)
        sim.run(until=1.2)
        lrs.stop()
        assert lrs.stats.throughput(sim.now) == pytest.approx(1000.0, rel=0.1)

    def test_overload_drops(self):
        sim, client, ans = direct_pair(request_cost=1.0 / 100.0)
        sock = client.udp.bind_ephemeral(lambda *a: None)
        for i in range(500):
            sock.send(make_query("x.com", msg_id=i), ANS_IP, 53)
        sim.run(until=2.0)
        assert ans.requests_dropped > 0
        assert ans.requests_served + ans.requests_dropped == 500


class TestLrsSimulator:
    def test_closed_loop_paces_on_rtt(self):
        sim, client, ans = direct_pair(mode="answer")
        lrs = LrsSimulator(client, ANS_IP, workload="plain", concurrency=1)
        lrs.start()
        sim.run(until=1.0)
        lrs.stop()
        # one loop at 0.4 ms RTT -> ~2500 req/s
        assert lrs.stats.completed == pytest.approx(2500, rel=0.1)

    def test_concurrency_scales_throughput(self):
        sim, client, ans = direct_pair(mode="answer")
        lrs = LrsSimulator(client, ANS_IP, workload="plain", concurrency=8)
        lrs.start()
        sim.run(until=0.5)
        lrs.stop()
        assert lrs.stats.completed == pytest.approx(8 * 2500 * 0.5, rel=0.15)

    def test_timeout_counted_when_server_dark(self):
        sim = Simulator()
        client = Node(sim, "client")
        client.add_address("10.0.0.1")
        dark = Node(sim, "dark")
        dark.add_address(ANS_IP)
        Link(sim, client, dark, delay=0.0002)
        lrs = LrsSimulator(client, ANS_IP, workload="plain", timeout=0.01)
        lrs.start()
        sim.run(until=0.1)
        lrs.stop()
        assert lrs.stats.completed == 0
        assert lrs.stats.timeouts >= 8

    def test_target_rate_paces_below_capacity(self):
        sim, client, ans = direct_pair(mode="answer")
        lrs = LrsSimulator(
            client, ANS_IP, workload="plain", concurrency=16, target_rate=1000.0
        )
        lrs.start()
        sim.run(until=0.5)
        lrs.stats.begin_window(sim.now)
        sim.run(until=2.5)
        lrs.stop()
        assert lrs.stats.throughput(sim.now) == pytest.approx(1000.0, rel=0.1)

    def test_invalid_workload_rejected(self):
        sim, client, ans = direct_pair()
        with pytest.raises(ValueError):
            LrsSimulator(client, ANS_IP, workload="nope")

    def test_latency_recording(self):
        sim, client, ans = direct_pair(mode="answer")
        lrs = LrsSimulator(client, ANS_IP, workload="plain")
        lrs.record_latencies = True
        lrs.start()
        sim.run(until=0.05)
        lrs.stop()
        assert lrs.latencies
        assert all(lat == pytest.approx(0.0004, rel=0.2) for lat in lrs.latencies)

    def test_window_throughput_counter(self):
        sim, client, ans = direct_pair(mode="answer")
        lrs = LrsSimulator(client, ANS_IP, workload="plain", concurrency=4)
        lrs.start()
        sim.run(until=0.1)
        lrs.stats.begin_window(sim.now)
        before = lrs.stats.completed
        sim.run(until=0.3)
        assert lrs.stats.window_completed == lrs.stats.completed - before
        lrs.stop()


class TestTcpLoadClient:
    def test_requests_complete_over_tcp(self):
        from repro.dns import AuthoritativeServer, Zone

        sim = Simulator()
        client = Node(sim, "client")
        client.add_address("10.0.0.1")
        ans_node = Node(sim, "ans")
        ans_node.add_address(ANS_IP)
        Link(sim, client, ans_node, delay=0.0002)
        zone = Zone("foo.com.")
        zone.add_a("www.foo.com.", "198.51.100.80")
        AuthoritativeServer(ans_node, [zone])
        tcp = TcpLoadClient(client, ANS_IP, concurrency=4)
        tcp.start()
        sim.run(until=0.5)
        tcp.stop()
        assert tcp.stats.completed > 50
        assert tcp.stats.timeouts == 0
