"""Unit tests for the LRS-side local DNS guard (modified-DNS scheme)."""

from ipaddress import IPv4Address

import pytest

from repro.dns import LrsSimulator
from repro.dnswire import make_query
from repro.experiments.testbed import ANS_ADDRESS, GuardTestbed


def build(cache=True, guard_enabled=True):
    bed = GuardTestbed(ans="simulator", ans_mode="answer", guard_enabled=guard_enabled)
    client = bed.add_client("lrs", via_local_guard=True)
    client.local_guard.cache_cookies = cache
    lrs = LrsSimulator(client, ANS_ADDRESS, workload="plain")
    return bed, client, lrs


class TestCookieCaching:
    def test_one_cookie_per_server(self):
        bed, client, lrs = build()
        lrs.start()
        bed.run(0.2)
        lrs.stop()
        guard = client.local_guard
        assert guard.cookies_cached == 1
        assert guard.cached_cookie(ANS_ADDRESS, client.address) is not None

    def test_cached_cookie_skips_exchange(self):
        bed, client, lrs = build()
        lrs.start()
        bed.run(0.2)
        lrs.stop()
        # one grant total: everything after the first query reused the cache
        assert bed.guard.cookies_granted == 1
        assert client.local_guard.queries_stamped >= lrs.stats.completed

    def test_cache_disabled_fetches_per_query(self):
        bed, client, lrs = build(cache=False)
        lrs.start()
        bed.run(0.1)
        lrs.stop()
        assert bed.guard.cookies_granted >= lrs.stats.completed
        assert client.local_guard.cookies_cached == 0

    def test_flush_forces_refetch(self):
        bed, client, lrs = build()
        lrs.start()
        bed.run(0.1)
        client.local_guard.flush()
        bed.run(0.1)
        lrs.stop()
        assert bed.guard.cookies_granted == 2

    def test_cookie_ttl_expiry(self):
        bed, client, lrs = build()
        client.local_guard.cookie_ttl = 0.05
        lrs.start()
        bed.run(0.3)
        lrs.stop()
        # the cookie expired several times and was re-fetched
        assert bed.guard.cookies_granted >= 3


class TestUnguardedServerDetection:
    def test_passthrough_when_no_remote_guard(self):
        bed, client, lrs = build(guard_enabled=False)
        lrs.start()
        bed.run(0.3)
        lrs.stop()
        # traffic flows at full closed-loop speed despite no grants ever
        assert lrs.stats.completed > 500
        assert lrs.stats.timeouts <= 2
        assert client.local_guard.cookies_cached == 0

    def test_held_queries_released_plain(self):
        bed, client, lrs = build(guard_enabled=False)
        lrs.start()
        bed.run(0.2)
        lrs.stop()
        assert bed.ans.requests_served >= lrs.stats.completed

    def test_guard_reenables_after_negative_ttl(self):
        from repro.guard.local_guard import UNCOOKIED_TTL

        bed, client, lrs = build(guard_enabled=True)
        bed.guard.enabled = False
        lrs.start()
        bed.run(0.2)
        bed.guard.enabled = True
        bed.run(UNCOOKIED_TTL + 1.0)
        lrs.stop()
        # once the negative entry expired, the shimmed cookie flow resumed
        assert bed.guard.cookies_granted >= 1
        assert lrs.stats.completed > 1000


class TestFrozenQuery:
    @pytest.mark.parametrize("frozen", [False, True])
    def test_edited_copies_of_a_frozen_query_are_sized_by_their_own_bytes(self, frozen):
        """The probe and the stamped re-send are edited copies of the held
        query; a frozen original must not lend them its cookie-less memo."""
        bed, client, _ = build()
        query = make_query("www.foo.com.", msg_id=7)
        if frozen:
            query.freeze()
        client.udp.bind_ephemeral(lambda *_: None).send(query, ANS_ADDRESS, 53)
        bed.run(0.1)
        guard = client.local_guard
        assert (guard.queries_held, guard.cookies_cached) == (1, 1)
        packets, dropped, sent_bytes = guard.node.default_route.stats(guard.node)
        # probe + re-send, each IP + UDP + the 29-byte query + a 28-byte cookie RR
        assert (packets, dropped, sent_bytes) == (2, 0, 2 * (20 + 8 + 29 + 28))
