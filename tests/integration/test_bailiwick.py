"""Bailiwick enforcement: a server cannot poison names above its zone.

Also checks the compatibility property the guard depends on: every record
the guard fabricates lives *inside* the protected zone's bailiwick, so the
hardening never rejects the cookie namespace.
"""

from ipaddress import IPv4Address

import pytest

from repro.dns import AuthoritativeServer, Zone
from repro.dnswire import (
    Name,
    RRType,
    a_record,
    make_response,
    ns_record,
    soa_record,
)
from tests.dns.conftest import FOO_IP, Hierarchy


class TestBailiwick:
    def _poison_foo_server(self, h, extra_records):
        """Make foo.com's server append poison records to every response."""
        original = h.foo.respond

        def poisoned(query):
            # respond may hand back a frozen prototype, shared with later
            # answers: poison an editable copy, never the prototype itself
            response = original(query).copy()
            for section, rr in extra_records:
                getattr(response, section).append(rr)
            return response

        h.foo.respond = poisoned

    def test_out_of_bailiwick_answer_not_cached(self):
        h = Hierarchy()
        poison = a_record("www.bank.example.", "6.6.6.6", ttl=3600)
        self._poison_foo_server(h, [("answers", poison)])
        results = []
        h.lrs.resolve("www.foo.com", RRType.A, results.append)
        h.sim.run(until=10.0)
        assert results[0].ok
        cached = h.lrs.cache.get(Name.from_text("www.bank.example."), RRType.A, h.sim.now)
        assert cached is None

    def test_out_of_bailiwick_delegation_not_cached(self):
        h = Hierarchy()
        # foo.com's server claims to delegate "com" (its own parent!)
        poison_ns = ns_record("com.", "evil.foo.com.", ttl=3600)
        poison_a = a_record("evil.foo.com.", "6.6.6.6", ttl=3600)
        self._poison_foo_server(h, [("authorities", poison_ns), ("additionals", poison_a)])
        results = []
        h.lrs.resolve("www.foo.com", RRType.A, results.append)
        h.sim.run(until=10.0)
        assert results[0].ok
        # the legitimate com delegation (from the root) must survive
        cached_ns = h.lrs.cache.get(Name.from_text("com."), RRType.NS, h.sim.now)
        assert cached_ns is not None
        targets = {rr.rdata.target for rr in cached_ns}
        assert Name.from_text("evil.foo.com.") not in targets

    def test_in_bailiwick_glue_still_flows(self):
        """The com server's glue for ns1.foo.com is in bailiwick: accepted."""
        h = Hierarchy()
        results = []
        h.lrs.resolve("www.foo.com", RRType.A, results.append)
        h.sim.run(until=10.0)
        assert results[0].ok
        glue = h.lrs.cache.get(Name.from_text("ns1.foo.com."), RRType.A, h.sim.now)
        assert glue is not None
        assert glue[0].rdata.address == FOO_IP

    def test_root_bailiwick_covers_everything(self):
        """Root glue for out-of-zone-looking names (gtld-servers.net) works."""
        h = Hierarchy()
        results = []
        h.lrs.resolve("www.foo.com", RRType.A, results.append)
        h.sim.run(until=10.0)
        assert results[0].ok
        glue = h.lrs.cache.get(Name.from_text("a.gtld-servers.net."), RRType.A, h.sim.now)
        assert glue is not None

    def test_guard_namespace_is_always_in_bailiwick(self):
        """The fabricated cookie records sit inside the protected origin,
        so bailiwick-checking resolvers accept them (transparency holds)."""
        from repro.experiments.hierarchy import GuardedHierarchy, WWW_IP

        h = GuardedHierarchy(guard_root=True, guard_foo=True)
        result = h.resolve("www.foo.com")
        assert result.ok
        assert result.addresses() == [WWW_IP]
        assert h.fabricated_cache_entries() > 0  # accepted into the cache
