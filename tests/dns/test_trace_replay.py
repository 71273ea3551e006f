"""Trace-replay workloads, link jitter and cookie-key persistence."""

import random
import statistics
from ipaddress import IPv4Address

import pytest

from repro.dns import TraceReplayClient
from repro.experiments.testbed import ANS_ADDRESS, GuardTestbed
from repro.guard import CookieFactory, random_key
from repro.netsim import Link, Node, Simulator

#: keys are seeded like everything else: nothing here draws OS entropy
RNG = random.Random(2006)


class TestTraceReplay:
    def test_replays_at_scheduled_times(self):
        bed = GuardTestbed(ans="simulator", ans_mode="answer", guard_enabled=False)
        client = bed.add_client("replayer")
        trace = [(0.01 * i, f"q{i}.foo.com") for i in range(20)]
        replay = TraceReplayClient(client, ANS_ADDRESS, trace)
        replay.start()
        bed.run(1.0)
        assert replay.stats.completed == 20
        assert replay.stats.timeouts == 0
        assert statistics.fmean(replay.latencies) == pytest.approx(0.0004, rel=0.2)

    def test_replay_through_guard_cookie_flow(self):
        bed = GuardTestbed(ans="simulator", ans_mode="answer")
        client = bed.add_client("replayer", via_local_guard=True)
        trace = [(0.005 * i, "app.foo.com") for i in range(50)]
        replay = TraceReplayClient(client, ANS_ADDRESS, trace, timeout=0.05)
        replay.start()
        bed.run(2.0)
        assert replay.stats.completed == 50
        assert bed.guard.cookies_granted == 1

    def test_unsorted_trace_is_sorted(self):
        bed = GuardTestbed(ans="simulator", ans_mode="answer", guard_enabled=False)
        client = bed.add_client("replayer")
        replay = TraceReplayClient(client, ANS_ADDRESS, [(0.05, "b.x"), (0.01, "a.x")])
        assert [q for _, q in replay.trace][0].labels[0] == b"a"


class TestLinkJitter:
    def test_jitter_varies_arrival_times(self):
        sim = Simulator(seed=5)
        a = Node(sim, "a")
        a.add_address("10.0.0.1")
        b = Node(sim, "b")
        b.add_address("10.0.0.2")
        Link(sim, a, b, delay=0.001, jitter=0.0005)
        arrivals = []
        b.udp.bind(53, lambda p, s, sp, d: arrivals.append(sim.now))
        sock = a.udp.bind_ephemeral(lambda *args: None)
        for i in range(50):
            sim.schedule(i * 0.01, sock.send, b"x", IPv4Address("10.0.0.2"), 53)
        sim.run(until=2.0)
        deltas = [t - i * 0.01 for i, t in enumerate(arrivals)]
        assert min(deltas) >= 0.0005 - 1e-9
        assert max(deltas) <= 0.0015 + 1e-9
        assert max(deltas) - min(deltas) > 0.0003  # actually spread out

    def test_invalid_jitter_rejected(self):
        sim = Simulator()
        a, b = Node(sim, "a"), Node(sim, "b")
        with pytest.raises(ValueError):
            Link(sim, a, b, delay=0.001, jitter=0.002)


class TestKeyPersistence:
    def test_export_import_round_trip(self):
        source = IPv4Address("10.0.0.53")
        factory = CookieFactory(random_key(RNG))
        cookie = factory.cookie(source)
        restored = CookieFactory.import_state(factory.export_state())
        assert restored.verify(cookie, source)
        assert restored.generation == factory.generation

    def test_previous_key_survives_restart(self):
        source = IPv4Address("10.0.0.53")
        factory = CookieFactory(random_key(RNG))
        old_cookie = factory.cookie(source)
        factory.rotate(random_key(RNG))
        restored = CookieFactory.import_state(factory.export_state())
        assert restored.verify(old_cookie, source)  # old generation honoured
        assert restored.verify(restored.cookie(source), source)

    def test_label_width_carried_by_caller(self):
        factory = CookieFactory(random_key(RNG), label_hex_digits=16)
        restored = CookieFactory.import_state(
            factory.export_state(), label_hex_digits=16
        )
        source = IPv4Address("10.0.0.53")
        assert restored.verify_label(factory.label_cookie(source), source)

    def test_truncated_blob_rejected(self):
        with pytest.raises(ValueError):
            CookieFactory.import_state(b"\x00\x00\x00\x00")

    def test_guard_restart_scenario(self):
        """A new guard built from exported state honours cookies issued
        before the 'restart'."""
        from repro.dns import LrsSimulator

        bed = GuardTestbed(ans="simulator", ans_mode="referral")
        client = bed.add_client("lrs")
        lrs = LrsSimulator(client, ANS_ADDRESS, workload="referral")
        lrs.start()
        bed.run(0.05)
        lrs.stop()
        bed.run(0.02)
        # "restart": replace the factory with one rebuilt from saved state
        bed.guard.cookies = CookieFactory.import_state(bed.guard.cookies.export_state())
        completed_before = lrs.stats.completed
        lrs.start()
        bed.run(0.05)
        lrs.stop()
        assert lrs.stats.completed > completed_before + 50
        assert lrs.stats.timeouts == 0
