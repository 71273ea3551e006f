"""End-to-end tests: each guard scheme carries real traffic and blocks spoofs."""

from ipaddress import IPv4Address

import pytest

from repro.dns import LrsSimulator
from repro.dnswire import Message, extract_cookie, make_query
from repro.experiments.testbed import ANS_ADDRESS, GuardTestbed


class TestModifiedDnsScheme:
    def build(self, **kwargs):
        bed = GuardTestbed(ans="simulator", ans_mode="answer", **kwargs)
        client = bed.add_client("lrs1", via_local_guard=True)
        lrs = LrsSimulator(client, ANS_ADDRESS, workload="plain")
        return bed, client, lrs

    def test_queries_complete_through_cookie_exchange(self):
        bed, client, lrs = self.build()
        lrs.start()
        bed.run(0.5)
        lrs.stop()
        assert lrs.stats.completed > 100
        assert lrs.stats.timeouts <= 1  # only possibly the very first exchange
        assert client.local_guard.cookies_cached == 1
        assert bed.guard.cookies_granted == 1
        assert bed.guard.valid_cookies >= lrs.stats.completed - 1

    def test_ans_never_sees_cookie_extension(self):
        bed, client, lrs = self.build()
        seen = []
        original = bed.ans.respond

        def spy(query):
            seen.append(extract_cookie(query))
            return original(query)

        bed.ans.respond = spy
        lrs.start()
        bed.run(0.1)
        lrs.stop()
        assert seen and all(cookie is None for cookie in seen)

    def test_first_query_needs_2rtt_then_1rtt(self):
        bed, client, lrs = self.build()
        lrs.record_latencies = True
        lrs.start()
        bed.run(0.05)
        lrs.stop()
        first, rest = lrs.latencies[0], lrs.latencies[1:]
        assert first == pytest.approx(2 * 0.0004, rel=0.3)  # cookie fetch + query
        assert rest
        assert all(lat == pytest.approx(0.0004, rel=0.3) for lat in rest)

    def test_spoofed_flood_never_reaches_ans(self):
        bed, client, lrs = self.build()
        attacker = bed.add_client("attacker")
        sock = attacker.udp.bind_ephemeral(lambda *a: None)
        lrs.start()
        bed.run(0.05)
        served_before = bed.ans.requests_served
        for i in range(500):
            sock.send(
                make_query("www.foo.com", msg_id=i),
                ANS_ADDRESS,
                53,
                src=IPv4Address(f"172.16.{i % 200}.{i % 250 + 1}"),
            )
        bed.run(0.2)
        lrs.stop()
        # the attacker's plain queries only earned fabricated referrals;
        # every request the ANS served in the window came from the real LRS
        legit_in_window = lrs.stats.completed
        assert bed.ans.requests_served - served_before <= legit_in_window + 2
        assert bed.guard.referrals_fabricated >= 400

    def test_forged_cookie_dropped(self):
        bed, client, lrs = self.build()
        attacker = bed.add_client("attacker2")
        sock = attacker.udp.bind_ephemeral(lambda *a: None)
        from repro.dnswire import attach_cookie

        for i in range(50):
            forged = attach_cookie(make_query("www.foo.com", msg_id=i), bytes(range(16)))
            sock.send(forged, ANS_ADDRESS, 53, src=IPv4Address("10.0.0.10"))  # lrs1's IP
        served_before = bed.ans.requests_served
        bed.run(0.1)
        assert bed.guard.invalid_drops >= 50
        assert bed.ans.requests_served == served_before


class TestNsNameScheme:
    def build(self, cache_cookies=True):
        bed = GuardTestbed(ans="simulator", ans_mode="referral")
        client = bed.add_client("lrs1")
        lrs = LrsSimulator(
            client, ANS_ADDRESS, workload="referral", cache_cookies=cache_cookies
        )
        return bed, client, lrs

    def test_referral_workload_completes(self):
        bed, client, lrs = self.build()
        lrs.start()
        bed.run(0.5)
        lrs.stop()
        assert lrs.stats.completed > 100
        assert lrs.stats.timeouts == 0
        assert bed.guard.responses_transformed >= lrs.stats.completed

    def test_cache_miss_is_six_packet_exchange(self):
        """First access: messages 1-6 — two guard round trips."""
        bed, client, lrs = self.build()
        lrs.record_latencies = True
        lrs.start()
        bed.run(0.02)
        lrs.stop()
        assert lrs.latencies[0] == pytest.approx(2 * 0.0004, rel=0.3)

    def test_cache_hit_is_one_round_trip(self):
        bed, client, lrs = self.build()
        lrs.record_latencies = True
        lrs.start()
        bed.run(0.05)
        lrs.stop()
        later = lrs.latencies[5:]
        assert later and all(lat == pytest.approx(0.0004, rel=0.3) for lat in later)

    def test_cookie_cache_disabled_repeats_full_exchange(self):
        bed, client, lrs = self.build(cache_cookies=False)
        lrs.record_latencies = True
        lrs.start()
        bed.run(0.05)
        lrs.stop()
        assert all(lat == pytest.approx(2 * 0.0004, rel=0.3) for lat in lrs.latencies)
        # one fabricated referral per iteration
        assert bed.guard.referrals_fabricated >= lrs.stats.completed

    def test_spoofed_cookie_labels_dropped(self):
        bed, client, lrs = self.build()
        attacker = bed.add_client("attacker")
        sock = attacker.udp.bind_ephemeral(lambda *a: None)
        from repro.dnswire import Name

        for i in range(100):
            bogus = Name([b"PRdeadbeef" + b"www.foo.com"])
            sock.send(
                make_query(bogus, msg_id=i),
                ANS_ADDRESS,
                53,
                src=IPv4Address(f"172.16.0.{i % 250 + 1}"),
            )
        served_before = bed.ans.requests_served
        bed.run(0.1)
        assert bed.guard.invalid_drops >= 100
        assert bed.ans.requests_served == served_before


class TestFabricatedNsIpScheme:
    def build(self, cache_cookies=True):
        bed = GuardTestbed(ans="simulator", ans_mode="answer")
        client = bed.add_client("lrs1")
        lrs = LrsSimulator(
            client, ANS_ADDRESS, workload="nonreferral", cache_cookies=cache_cookies
        )
        return bed, client, lrs

    def test_nonreferral_workload_completes(self):
        bed, client, lrs = self.build()
        lrs.start()
        bed.run(0.5)
        lrs.stop()
        assert lrs.stats.completed > 100
        assert lrs.stats.timeouts == 0

    def test_cookie2_address_is_in_guard_subnet(self):
        bed, client, lrs = self.build()
        lrs.start()
        bed.run(0.05)
        lrs.stop()
        assert lrs._cookie2_address is not None
        from ipaddress import IPv4Network

        assert IPv4Address(lrs._cookie2_address) in IPv4Network("198.18.0.0/24")

    def test_cache_miss_three_round_trips_hit_one(self):
        bed, client, lrs = self.build()
        lrs.record_latencies = True
        lrs.start()
        bed.run(0.05)
        lrs.stop()
        assert lrs.latencies[0] == pytest.approx(3 * 0.0004, rel=0.3)
        later = lrs.latencies[5:]
        assert later and all(lat == pytest.approx(0.0004, rel=0.3) for lat in later)

    def test_wrong_cookie2_address_dropped(self):
        bed, client, lrs = self.build()
        lrs.start()
        bed.run(0.05)
        lrs.stop()
        correct = lrs._cookie2_address
        # find a wrong address in the subnet and query it from the same source
        wrong = IPv4Address(int(correct) + 1 if int(correct) % 2 == 0 else int(correct) - 1)
        sock = client.udp.bind_ephemeral(lambda *a: None)
        drops_before = bed.guard.invalid_drops
        sock.send(make_query("www.foo.com", msg_id=999), wrong, 53)
        bed.run(0.05)
        assert bed.guard.invalid_drops == drops_before + 1

    def test_guessing_succeeds_at_one_over_range(self):
        """§III.G: spraying the COOKIE2 range succeeds for ~1/R_y of packets."""
        bed, client, lrs = self.build()
        lrs.start()
        bed.run(0.02)
        lrs.stop()
        bed.run(0.02)  # let the last in-flight interaction settle
        attacker = bed.add_client("attacker")
        sock = attacker.udp.bind_ephemeral(lambda *a: None)
        spoofed_src = IPv4Address("10.0.0.10")  # lrs1's address
        valid_before = bed.guard.valid_cookies
        for y in range(254):
            target = IPv4Address(int(IPv4Address("198.18.0.0")) + 1 + y)
            sock.send(make_query("www.foo.com", msg_id=y), target, 53, src=spoofed_src)
        bed.run(0.1)
        # exactly one of the 254 sprayed addresses carries the right cookie
        assert bed.guard.valid_cookies - valid_before == 1


class TestTcpScheme:
    def build(self):
        bed = GuardTestbed(ans="simulator", ans_mode="answer", guard_policy="tcp")
        client = bed.add_client("lrs1")
        lrs = LrsSimulator(client, ANS_ADDRESS, workload="plain", timeout=0.05)
        return bed, client, lrs

    def test_truncation_redirects_to_tcp_and_completes(self):
        bed, client, lrs = self.build()
        lrs.start()
        bed.run(0.5)
        lrs.stop()
        assert lrs.stats.completed > 50
        assert bed.guard.truncations_sent >= lrs.stats.completed
        assert bed.guard.tcp_proxy.requests_proxied >= lrs.stats.completed

    def test_proxy_converts_to_udp_for_ans(self):
        bed, client, lrs = self.build()
        lrs.start()
        bed.run(0.1)
        lrs.stop()
        assert bed.ans.requests_served >= lrs.stats.completed

    def test_spoofed_syn_flood_leaves_no_state(self):
        from repro.netsim import Packet, TcpFlags, TcpSegment, parse_address

        bed, client, lrs = self.build()
        attacker = bed.add_client("attacker")
        for i in range(300):
            syn = TcpSegment(sport=10000 + i, dport=53, seq=i, ack=0, flags=TcpFlags.SYN)
            attacker.send(
                Packet(
                    src=parse_address(f"172.20.{i % 200}.{i % 250 + 1}"),
                    dst=ANS_ADDRESS,
                    segment=syn,
                )
            )
        bed.run(0.2)
        assert bed.guard_node.tcp.open_connections == 0

    def test_connection_reaper_removes_stragglers(self):
        bed, client, lrs = self.build()

        # open a connection and never send anything
        client.tcp.connect(ANS_ADDRESS, 53)
        bed.run(3.0)  # past the reap floor
        assert bed.guard.tcp_proxy.connections_reaped >= 1
        assert bed.guard_node.tcp.open_connections == 0

    def test_connection_rate_limited_per_client(self):
        bed, client, lrs = self.build()
        bed.guard.tcp_proxy.new_connection_rate = 5.0
        bed.guard.tcp_proxy.new_connection_burst = 5.0
        for _ in range(50):
            client.tcp.connect(ANS_ADDRESS, 53)
        bed.run(0.5)
        assert bed.guard.tcp_proxy.connections_rate_limited > 0
