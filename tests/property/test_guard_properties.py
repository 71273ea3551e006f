"""Property-based tests for guard invariants."""

from ipaddress import IPv4Address

from hypothesis import assume, given, settings, strategies as st

from repro.guard import (
    CookieFactory,
    TokenBucket,
    TopRequesterTracker,
    decode_cookie_name,
    encode_cookie_name,
)
from repro.guard.core import KEY_LENGTH
from repro.dnswire import Name

ips = st.integers(min_value=1, max_value=2**32 - 2).map(IPv4Address)
keys = st.binary(min_size=KEY_LENGTH, max_size=KEY_LENGTH)

labels = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1, max_size=12
).map(lambda s: s.encode())
names = st.lists(labels, min_size=0, max_size=4).map(Name)


class TestCookieProperties:
    @given(key=keys, ip=ips)
    def test_own_cookie_always_verifies(self, key, ip):
        factory = CookieFactory(key)
        assert factory.verify(factory.cookie(ip), ip)
        assert factory.verify_label(factory.label_cookie(ip), ip)

    @given(key=keys, ip=ips, other=ips)
    def test_cookie_never_verifies_for_other_source(self, key, ip, other):
        assume(ip != other)
        factory = CookieFactory(key)
        assert not factory.verify(factory.cookie(ip), other)

    @given(key=keys, first=keys, second=keys, ip=ips)
    def test_rotation_preserves_then_expires(self, key, first, second, ip):
        assume(second != key)  # the generation bit repeats every two rotations
        factory = CookieFactory(key)
        cookie = factory.cookie(ip)
        factory.rotate(first)
        assert factory.verify(cookie, ip)
        factory.rotate(second)
        assert not factory.verify(cookie, ip)

    @given(key=keys, ip=ips, r_y=st.integers(min_value=1, max_value=65534))
    def test_ip_cookie_in_range_and_verifies(self, key, ip, r_y):
        factory = CookieFactory(key)
        y = factory.ip_cookie(ip, r_y)
        assert 0 <= y < r_y
        assert factory.verify_ip_cookie(y, ip, r_y)


class TestCookieNameProperties:
    @given(qname=names, origin_depth=st.integers(min_value=0, max_value=2))
    def test_encode_decode_round_trip(self, qname, origin_depth):
        assume(len(qname) >= origin_depth)
        origin = Name(qname.labels[len(qname) - origin_depth:])
        encoded = encode_cookie_name(b"PRa1b2c3d4", qname, origin)
        assume(encoded is not None)  # may exceed the 63-byte label limit
        decoded = decode_cookie_name(encoded, origin)
        assert decoded is not None
        assert decoded.original_qname == qname
        assert decoded.cookie_label == b"PRa1b2c3d4"

    @given(qname=names)
    def test_normal_names_never_decode(self, qname):
        assume(not qname.is_root())
        # the marker check is case-insensitive (DNS-0x20), so the exclusion
        # must be too: a lowercase pr+8hex label IS a valid cookie label
        assume(
            not qname.labels[0].upper().startswith(b"PR")
            or len(qname.labels[0]) < 10
        )
        assert decode_cookie_name(qname, Name(qname.labels[1:])) is None


class TestTokenBucketProperties:
    @given(
        rate=st.floats(min_value=0.5, max_value=1000.0),
        burst=st.floats(min_value=1.0, max_value=100.0),
        arrivals=st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=200),
    )
    def test_never_exceeds_rate_times_time_plus_burst(self, rate, burst, arrivals):
        bucket = TokenBucket(rate, burst)
        allowed = 0
        horizon = 0.0
        for t in sorted(arrivals):
            horizon = t
            if bucket.consume(t):
                allowed += 1
        assert allowed <= rate * horizon + burst + 1e-6

    @given(rate=st.floats(min_value=1.0, max_value=100.0),
           burst=st.floats(min_value=1.0, max_value=10.0))
    def test_tokens_never_exceed_burst(self, rate, burst):
        bucket = TokenBucket(rate, burst)
        assert bucket.available(1e9) <= burst


class TestTrackerProperties:
    @given(
        heavy_count=st.integers(min_value=50, max_value=500),
        noise=st.integers(min_value=0, max_value=500),
        capacity=st.integers(min_value=4, max_value=64),
    )
    @settings(max_examples=50)
    def test_majority_source_always_tracked(self, heavy_count, noise, capacity):
        """Space-saving guarantee: a source with > N/capacity of the traffic
        is always present in the table."""
        assume(heavy_count > (heavy_count + noise) / capacity)
        tracker = TopRequesterTracker(capacity)
        heavy = IPv4Address("9.9.9.9")
        for i in range(max(heavy_count, noise)):
            if i < heavy_count:
                tracker.observe(heavy)
            if i < noise:
                tracker.observe(IPv4Address(0x0A000000 + i))
        assert tracker.count(heavy) >= heavy_count

    @given(
        sources=st.lists(st.integers(min_value=0, max_value=40), max_size=400),
        capacity=st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=100)
    def test_space_saving_bounds(self, sources, capacity):
        """``count - error <= true <= count`` for every tracked source, any
        source with true count > N/capacity is tracked, and the min-ordered
        index holds exactly one item per tracked source."""
        tracker = TopRequesterTracker(capacity)
        true: dict[int, int] = {}
        for n in sources:
            true[n] = true.get(n, 0) + 1
            assert tracker.observe(IPv4Address(n)) >= true[n]
            assert len(tracker._min_heap) == len(tracker._counts) <= capacity
        for address, entry in tracker._counts.items():
            assert entry.count - entry.error <= true[int(address)] <= entry.count
        assert sorted(item[2] for item in tracker._min_heap) == sorted(tracker._counts)
        for n, seen in true.items():
            if seen > len(sources) / capacity:
                assert tracker.count(IPv4Address(n)) >= seen
