"""Unit-level tests for the remote guard pipeline internals."""

from ipaddress import IPv4Address

import pytest

from repro.dns import LrsSimulator
from repro.dnswire import make_query
from repro.experiments.testbed import ANS_ADDRESS, GuardTestbed
from repro.netsim import parse_address


class TestActivationThreshold:
    def test_below_threshold_passes_through(self):
        bed = GuardTestbed(
            ans="simulator", ans_mode="answer", activation_threshold=50_000.0
        )
        client = bed.add_client("lrs")
        lrs = LrsSimulator(client, ANS_ADDRESS, workload="plain", concurrency=4)
        lrs.start()
        bed.run(0.2)
        lrs.stop()
        # ~10K req/s offered, well below the threshold: no fabrications
        assert bed.guard.referrals_fabricated == 0
        assert bed.guard.forwarded_inactive > 0
        assert lrs.stats.completed > 1000

    def test_above_threshold_engages_detection(self):
        from repro.attack import SpoofingAttacker

        bed = GuardTestbed(
            ans="simulator", ans_mode="answer", activation_threshold=50_000.0
        )
        attacker = SpoofingAttacker(bed.add_client("atk"), ANS_ADDRESS, rate=100_000)
        attacker.start()
        bed.run(0.3)
        attacker.stop()
        # the estimator needs up to one window (~100 ms) to see the ramp;
        # after that, plain queries earn fabricated referrals instead of
        # reaching the ANS
        assert bed.guard.referrals_fabricated > 0
        served_early = bed.ans.requests_served
        assert served_early < 100_000 * 0.11  # at most ~one window leaked
        bed.run(0.1)
        # ...and nothing more leaks once detection is engaged
        assert bed.ans.requests_served == served_early

    def test_detection_disengages_when_attack_stops(self):
        from repro.attack import SpoofingAttacker

        bed = GuardTestbed(
            ans="simulator", ans_mode="answer", activation_threshold=50_000.0
        )
        attacker = SpoofingAttacker(bed.add_client("atk"), ANS_ADDRESS, rate=100_000)
        attacker.start()
        bed.run(0.1)
        attacker.stop()
        bed.run(0.3)  # quiet period
        client = bed.add_client("lrs")
        lrs = LrsSimulator(client, ANS_ADDRESS, workload="plain", concurrency=1)
        fabricated_before = bed.guard.referrals_fabricated
        lrs.start()
        bed.run(0.1)
        lrs.stop()
        assert bed.guard.referrals_fabricated == fabricated_before
        assert lrs.stats.completed > 50


class TestPerSourcePolicy:
    def test_policy_callable_dispatches_by_source(self):
        tcp_client_ip = parse_address("10.0.2.1")  # what the guard's policy is asked about

        def policy(source):
            return "tcp" if source == tcp_client_ip else "dns"

        bed = GuardTestbed(ans="simulator", ans_mode="answer", guard_policy=policy)
        dns_client = bed.add_client("dns-client")
        tcp_client = bed.add_client("tcp-client", address=tcp_client_ip)
        responses = {}

        for name, node in (("dns", dns_client), ("tcp", tcp_client)):
            sock = node.udp.bind_ephemeral(
                lambda p, s, sp, d, key=name: responses.__setitem__(key, p)
            )
            sock.send(make_query("www.foo.com", msg_id=1), ANS_ADDRESS, 53)
        bed.run(0.1)
        assert responses["tcp"].header.tc
        assert not responses["dns"].header.tc
        assert responses["dns"].authorities  # a fabricated referral


class TestMultipleAnsAddresses:
    def test_fabricated_name_carries_every_glue_address(self):
        """§III.B: one fabricated name maps to all of a domain's ANS IPs."""
        from repro.dns import AuthoritativeServer, Zone
        from repro.dnswire import soa_record

        bed = GuardTestbed(ans="bind", zone_origin=".")
        zone = Zone(".")
        zone.add(soa_record("."))
        zone.delegate("com.", "a.gtld-servers.net.", "192.5.6.30")
        zone.delegate("com.", "b.gtld-servers.net.", "192.33.14.30")
        bed.ans.zones = [zone]
        client = bed.add_client("lrs")
        lrs = LrsSimulator(client, ANS_ADDRESS, "www.foo.com", workload="referral")
        lrs.record_latencies = False
        responses = []

        # drive the exchange by hand to inspect message 6
        sock = client.udp.bind_ephemeral(lambda p, s, sp, d: responses.append(p))
        sock.send(make_query("www.foo.com", msg_id=1), ANS_ADDRESS, 53)
        bed.run(0.05)
        referral = responses[-1]
        ns_target = referral.authorities[0].rdata.target
        sock.send(make_query(ns_target, msg_id=2), ANS_ADDRESS, 53)
        bed.run(0.05)
        answer = responses[-1]
        addresses = {rr.rdata.address for rr in answer.answers}
        assert addresses == {IPv4Address("192.5.6.30"), IPv4Address("192.33.14.30")}


class TestCounters:
    def test_counters_track_full_exchange(self):
        bed = GuardTestbed(ans="simulator", ans_mode="referral")
        client = bed.add_client("lrs")
        lrs = LrsSimulator(client, ANS_ADDRESS, workload="referral", cache_cookies=False)
        lrs.start()
        bed.run(0.1)
        lrs.stop()
        done = lrs.stats.completed
        assert bed.guard.queries_seen >= 2 * done  # msg1 + msg3 per iteration
        assert bed.guard.referrals_fabricated >= done
        assert bed.guard.valid_cookies >= done
        assert bed.guard.responses_transformed >= done

    def test_pending_exchange_gauge(self):
        bed = GuardTestbed(ans="simulator", ans_mode="referral")
        assert bed.guard.pending_exchanges == 0


class TestForwardRule:
    """A disabled guard is not in the hop: its ``FORWARD`` rule is out of
    the node's list, and goes back where it was."""

    @staticmethod
    def rules(bed):
        return bed.guard_node.filters.forward

    def test_disable_takes_the_rule_out_and_enable_puts_it_back_in_place(self):
        from repro.netsim import Verdict

        bed = GuardTestbed(ans="simulator", ans_mode="referral")
        before, after = (lambda packet: Verdict.ACCEPT), (lambda packet: Verdict.ACCEPT)
        self.rules(bed).insert(0, before)
        self.rules(bed).append(after)
        assert self.rules(bed) == [before, bed.guard._transit, after]
        bed.guard.enabled = False
        assert self.rules(bed) == [before, after]
        assert not bed.guard.is_active(bed.sim.now)
        bed.guard.enabled = True
        bed.guard.enabled = True
        assert self.rules(bed) == [before, bed.guard._transit, after]

    def test_a_crashed_guard_keeps_its_rule_until_restart(self):
        bed = GuardTestbed(ans="simulator", ans_mode="referral", guard_enabled=False)
        assert self.rules(bed) == []
        state = bed.guard.crash()
        assert self.rules(bed) == [bed.guard._transit]  # dead inline hardware drops all
        bed.guard.restart(state)
        assert self.rules(bed) == []
        client = bed.add_client("lrs")
        lrs = LrsSimulator(client, ANS_ADDRESS, workload="referral", timeout=0.02)
        lrs.start()
        bed.run(0.05)
        lrs.stop()
        # a plain router: the ANS answered, the guard saw nothing
        assert lrs.stats.completed > 0 and bed.guard.queries_seen == 0
