"""Full-fidelity tests: an *unmodified* recursive resolver against guarded ANSs.

These exercise the paper's transparency claim — the DNS-based schemes need
no changes on the LRS side.  Our LRS here is the real iterative resolver,
not a load generator: it follows the fabricated referrals, re-resolves the
cookie NS names, queries the COOKIE2 addresses, and never knows a guard was
involved.
"""

from ipaddress import IPv4Address

import pytest

from repro.dnswire import Name, RRType
from repro.experiments.hierarchy import (
    FOO_IP,
    GuardedHierarchy as LibraryHierarchy,
    ROOT_IP,
    WWW_IP,
)
from repro.guard import random_key
from repro.netsim import Link, Node


class GuardedHierarchy(LibraryHierarchy):
    """Test adapter: keep the old resolve() signature used below."""

    def resolve(self, name, qtype=RRType.A, run_for=30.0):
        return super().resolve(str(name), qtype, run_for)


class TestGuardedRoot:
    def test_resolution_through_guarded_root(self):
        h = GuardedHierarchy(guard_root=True)
        result = h.resolve("www.foo.com")
        assert result.ok
        assert result.addresses() == [WWW_IP]
        # the guard fabricated a referral and validated a cookie query
        assert h.root_guard.referrals_fabricated == 1
        assert h.root_guard.valid_cookies == 1
        # the root itself saw exactly one (validated, restored) query
        assert h.root.requests_served == 1

    def test_root_never_sees_unvalidated_queries(self):
        h = GuardedHierarchy(guard_root=True)
        h.resolve("www.foo.com")
        assert h.root.requests_served == h.root_guard.valid_cookies

    def test_second_resolution_uses_cached_cookie_delegation(self):
        h = GuardedHierarchy(guard_root=True)
        h.resolve("www.foo.com")
        root_served = h.root.requests_served
        result = h.resolve("mail.foo.com")
        assert result.ok
        # com's delegation (via the fabricated NS) is cached; the root and
        # its guard are not consulted again
        assert h.root.requests_served == root_served

    def test_latency_overhead_is_one_extra_rtt(self):
        """First access pays 2 RTTs at the guarded root instead of 1."""
        plain = GuardedHierarchy(guard_root=False)
        guarded = GuardedHierarchy(guard_root=True)
        lat_plain = plain.resolve("www.foo.com").latency
        lat_guarded = guarded.resolve("www.foo.com").latency
        rtt = 2 * 2 * 0.0002  # lrs->hub->server, both ways
        assert lat_guarded - lat_plain == pytest.approx(rtt, rel=0.35)

    def test_spoofed_flood_blocked_while_lrs_resolves(self):
        from repro.dnswire import make_query

        h = GuardedHierarchy(guard_root=True)
        attacker = Node(h.sim, "attacker")
        attacker.add_address("10.66.0.1")
        link = Link(h.sim, attacker, h.hub, delay=0.0001)
        attacker.set_default_route(link)
        h.hub.add_route("10.66.0.1/32", link)
        sock = attacker.udp.bind_ephemeral(lambda *a: None)
        for i in range(300):
            sock.send(
                make_query(f"victim{i}.example", msg_id=i),
                ROOT_IP,
                53,
                src=IPv4Address(f"172.31.{i % 200}.{i % 250 + 1}"),
            )
        result = h.resolve("www.foo.com")
        assert result.ok
        assert h.root.requests_served == 1  # only the LRS's validated query


class TestGuardedLeaf:
    def test_resolution_through_guarded_foo(self):
        h = GuardedHierarchy(guard_root=False, guard_foo=True)
        result = h.resolve("www.foo.com")
        assert result.ok
        assert result.addresses() == [WWW_IP]
        assert h.foo_guard.referrals_fabricated == 1
        assert h.foo_guard.valid_cookies >= 1

    def test_cookie2_query_answered_from_guard_cache(self):
        h = GuardedHierarchy(guard_root=False, guard_foo=True)
        h.resolve("www.foo.com")
        # messages 1-6 hit the ANS once (the restored query); message 7 was
        # served from the guard's answer cache
        assert h.foo.requests_served == 1

    def test_both_guards_at_once(self):
        h = GuardedHierarchy(guard_root=True, guard_foo=True)
        result = h.resolve("www.foo.com")
        assert result.ok
        assert result.addresses() == [WWW_IP]
        assert h.root_guard.valid_cookies == 1
        assert h.foo_guard.valid_cookies >= 1

    def test_sibling_name_reuses_foo_delegation_not_cookie(self):
        h = GuardedHierarchy(guard_root=False, guard_foo=True)
        h.resolve("www.foo.com")
        result = h.resolve("mail.foo.com")
        assert result.ok
        # a new name means a new fabricated NS (per-name cookie storage --
        # the inefficiency §III.B.3 points out for non-referral answers)
        assert h.foo_guard.referrals_fabricated == 2


class TestKeyRotationLive:
    def test_rotation_does_not_break_cached_cookies(self):
        h = GuardedHierarchy(guard_root=True)
        h.resolve("www.foo.com")
        h.root_guard.cookies.rotate(random_key(h.sim.rng))
        # expire the cached com A so the LRS must re-consult the root via
        # its cached (old-generation) cookie name
        h.lrs.cache.evict(Name.from_text("com"), RRType.NS)
        result = h.resolve("mail.foo.com")
        assert result.ok

    def test_double_rotation_forces_fresh_exchange(self):
        h = GuardedHierarchy(guard_root=True)
        h.resolve("www.foo.com")
        h.root_guard.cookies.rotate(random_key(h.sim.rng))
        h.root_guard.cookies.rotate(random_key(h.sim.rng))
        h.lrs.cache.flush()
        result = h.resolve("mail.foo.com")
        assert result.ok
        assert h.root_guard.referrals_fabricated == 2
