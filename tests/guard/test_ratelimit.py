"""Unit tests for token buckets, heavy-hitter tracking and the rate limiters."""

import random
from ipaddress import IPv4Address

import pytest

from repro.guard import (
    RateEstimator,
    TokenBucket,
    TopRequesterTracker,
    UnverifiedResponseLimiter,
    VerifiedRequestLimiter,
)


def ip(n: int) -> IPv4Address:
    return IPv4Address(0x0A000000 + n)


class ScanTracker:
    """The pre-index ``TopRequesterTracker``: a front-to-back ``min()`` over
    every counter per eviction.  Kept as the oracle the indexed tracker must
    match observation for observation."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._counts: dict = {}  # source -> [count, error]
        self.total = 0

    def observe(self, source) -> int:
        self.total += 1
        entry = self._counts.get(source)
        if entry is not None:
            entry[0] += 1
            return entry[0]
        if len(self._counts) < self.capacity:
            self._counts[source] = [1, 0]
            return 1
        victim = min(self._counts, key=lambda src: self._counts[src][0])
        floor = self._counts.pop(victim)[0]
        self._counts[source] = [floor + 1, floor]
        return floor + 1

    def count(self, source) -> int:
        entry = self._counts.get(source)
        return entry[0] if entry else 0

    def top(self, k: int) -> list:
        ranked = sorted(self._counts.items(), key=lambda item: item[1][0], reverse=True)
        return [(src, entry[0]) for src, entry in ranked[:k]]


def source_stream(kind: str, capacity: int, seed: int) -> list[IPv4Address]:
    """A seeded stream that fills the table, then makes 1500 draws: ``hot``
    revisits a pool half again the table's size, ``churn`` never repeats a
    source, ``mixed`` interleaves five heavy hitters, the pool and one-shots."""
    rng = random.Random(seed)
    pool = [ip(1000 + i) for i in range(capacity + capacity // 2 + 2)]
    heavy = [ip(i) for i in range(1, 6)]
    fresh = iter(range(10**6, 10**7))
    stream = rng.sample(pool, capacity)
    for _ in range(1500):
        draw = rng.random()
        if kind == "hot" or (kind == "mixed" and 0.3 <= draw < 0.6):
            stream.append(rng.choice(pool))
        elif kind == "mixed" and draw < 0.3:
            stream.append(rng.choice(heavy))
        else:
            stream.append(ip(next(fresh)))
    return stream


class CountingKey:
    """A source whose ``__hash__`` calls are counted: the cost of one
    ``observe`` in table operations, independent of host speed."""

    __slots__ = ("n",)
    hashes = 0

    def __init__(self, n: int):
        self.n = n

    def __hash__(self) -> int:
        CountingKey.hashes += 1
        return hash(self.n)

    def __eq__(self, other) -> bool:
        return self.n == other.n


class TestTokenBucket:
    def test_burst_then_deny(self):
        bucket = TokenBucket(rate=10.0, burst=3.0)
        assert [bucket.consume(0.0) for _ in range(4)] == [True, True, True, False]

    def test_refill_over_time(self):
        bucket = TokenBucket(rate=10.0, burst=3.0)
        for _ in range(3):
            bucket.consume(0.0)
        assert not bucket.consume(0.0)
        assert bucket.consume(0.1)  # one token refilled

    def test_burst_is_capacity_ceiling(self):
        bucket = TokenBucket(rate=10.0, burst=3.0)
        assert bucket.available(100.0) == pytest.approx(3.0)

    def test_steady_state_rate(self):
        bucket = TokenBucket(rate=5.0, burst=1.0)
        allowed = sum(bucket.consume(t / 100.0) for t in range(200))  # 2 seconds
        assert 10 <= allowed <= 12  # ~5/sec plus the initial burst

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0, burst=1)
        with pytest.raises(ValueError):
            TokenBucket(rate=1, burst=0)


class TestTopRequesterTracker:
    def test_counts_accumulate(self):
        tracker = TopRequesterTracker(capacity=8)
        for _ in range(5):
            tracker.observe(ip(1))
        assert tracker.count(ip(1)) == 5

    def test_heavy_hitter_survives_churn(self):
        tracker = TopRequesterTracker(capacity=8)
        for i in range(1000):
            tracker.observe(ip(1))  # the heavy hitter
            tracker.observe(ip(100 + i))  # a sea of one-shot spoofed sources
        top = [address for address, _ in tracker.top(1)]
        assert top == [ip(1)]

    def test_capacity_bounded(self):
        tracker = TopRequesterTracker(capacity=16)
        for i in range(10000):
            tracker.observe(ip(i))
        assert len(tracker._counts) == 16

    def test_top_k_ordering(self):
        tracker = TopRequesterTracker(capacity=8)
        for count, host in ((5, 1), (3, 2), (8, 3)):
            for _ in range(count):
                tracker.observe(ip(host))
        assert [address for address, _ in tracker.top(2)] == [ip(3), ip(1)]

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            TopRequesterTracker(capacity=0)

    @pytest.mark.parametrize("capacity", [1, 2, 8, 4096])
    @pytest.mark.parametrize("kind", ["hot", "churn", "mixed"])
    def test_matches_min_scan_oracle(self, kind, capacity):
        """Same victim as the scan — the first-inserted source among the
        minimum counts — so every return value and the table order agree."""
        tracker, oracle = TopRequesterTracker(capacity), ScanTracker(capacity)
        stream = source_stream(kind, capacity, seed=capacity)
        for source in stream:
            assert tracker.observe(source) == oracle.observe(source)
            assert len(tracker._min_heap) == len(tracker._counts) <= capacity
        assert list(tracker._counts) == list(oracle._counts)
        assert [
            [entry.count, entry.error] for entry in tracker._counts.values()
        ] == list(oracle._counts.values())
        assert tracker.total == oracle.total == len(stream)
        for source in stream[-50:] + [ip(1), ip(999_999)]:
            assert tracker.count(source) == oracle.count(source)
        for k in (1, 5, capacity):
            assert tracker.top(k) == oracle.top(k)

    def test_eviction_cost_does_not_grow_with_capacity(self):
        """Key hashes per evicting ``observe`` — counts, not timings — are
        the same at 64 and 4096 counters; the scan paid one per counter."""

        def hashes_per_eviction(capacity: int) -> float:
            tracker = TopRequesterTracker(capacity)
            for n in range(capacity):
                tracker.observe(CountingKey(n))
            for n in range(0, capacity, 3):  # leave stale index entries behind
                tracker.observe(CountingKey(n))
            CountingKey.hashes = 0
            evictions = 500
            for n in range(evictions):
                tracker.observe(CountingKey(10**6 + n))
            return CountingKey.hashes / evictions

        small, large = hashes_per_eviction(64), hashes_per_eviction(4096)
        assert small == large
        assert large <= 4  # the miss, the victim's removal, the insert


class TestUnverifiedResponseLimiter:
    def test_reflection_victim_protected(self):
        """Responses toward one spoofed victim are clamped to the bucket rate."""
        limiter = UnverifiedResponseLimiter(per_source_rate=100.0, per_source_burst=100.0)
        victim = ip(99)
        allowed = sum(limiter.allow(victim, t / 10000.0) for t in range(10000))  # 1 sec
        assert allowed <= 250  # burst + ~100/sec, far below the 10000 offered

    def test_light_requesters_unaffected(self):
        limiter = UnverifiedResponseLimiter(per_source_rate=100.0, per_source_burst=200.0)
        assert all(limiter.allow(ip(i), float(i)) for i in range(500))

    def test_counters(self):
        limiter = UnverifiedResponseLimiter(per_source_rate=1.0, per_source_burst=1.0)
        limiter.allow(ip(1), 0.0)
        limiter.allow(ip(1), 0.0)
        assert limiter.allowed == 1 and limiter.denied == 1

    def test_bucket_table_bounded(self):
        limiter = UnverifiedResponseLimiter(max_buckets=64)
        for i in range(1000):
            limiter.allow(ip(i), 0.0)
        assert len(limiter._buckets) <= 64

    def test_reset_recreates_tracker_and_its_index(self):
        limiter = UnverifiedResponseLimiter(tracker_capacity=8)
        for i in range(100):
            limiter.allow(ip(i), 0.0)
        assert len(limiter.tracker._min_heap) == len(limiter.tracker._counts) == 8
        limiter.reset()
        assert limiter.tracker.capacity == 8
        assert limiter.tracker._min_heap == [] and limiter.tracker._counts == {}
        assert limiter.tracker.observe(ip(1)) == 1


class TestVerifiedRequestLimiter:
    def test_single_host_throttled(self):
        """§III.G: even a host with a valid cookie cannot flood the ANS."""
        limiter = VerifiedRequestLimiter(per_host_rate=100.0, per_host_burst=100.0)
        zombie = ip(66)
        allowed = sum(limiter.allow(zombie, t / 100000.0) for t in range(100000))  # 1 sec
        assert allowed <= 250

    def test_independent_hosts(self):
        limiter = VerifiedRequestLimiter(per_host_rate=10.0, per_host_burst=5.0)
        assert limiter.allow(ip(1), 0.0)
        assert limiter.allow(ip(2), 0.0)


class TestRateEstimator:
    def test_estimates_steady_rate(self):
        estimator = RateEstimator(window=0.1)
        rate = 0.0
        for i in range(2000):
            rate = estimator.observe(i / 1000.0)  # 1000 req/s for 2 seconds
        assert rate == pytest.approx(1000.0, rel=0.15)

    def test_ramp_up_detected_within_window(self):
        estimator = RateEstimator(window=0.1)
        for i in range(10):
            estimator.observe(i / 100.0)  # 100/s baseline
        # burst: 5000 arrivals in 10 ms
        rate = 0.0
        for i in range(5000):
            rate = estimator.observe(0.1 + i / 500000.0)
        assert rate > 10000

    def test_rate_now_does_not_count(self):
        estimator = RateEstimator(window=0.1)
        estimator.observe(0.0)
        before = estimator._count
        estimator.rate_now(0.05)
        assert estimator._count == before

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            RateEstimator(window=0.0)


class TestReconfigure:
    def test_bucket_reconfigure_clamps_tokens_to_new_burst(self):
        bucket = TokenBucket(rate=10.0, burst=10.0)
        bucket.reconfigure(5.0, 2.0)
        assert bucket.available(0.0) == pytest.approx(2.0)
        assert bucket.consume(0.0)
        assert bucket.consume(0.0)
        assert not bucket.consume(0.0)

    def test_bucket_widening_does_not_mint_tokens(self):
        bucket = TokenBucket(rate=10.0, burst=2.0)
        bucket.consume(0.0)
        bucket.consume(0.0)
        bucket.reconfigure(10.0, 100.0)
        assert bucket.available(0.0) == pytest.approx(0.0)
        # ...but the new ceiling applies to refills
        assert bucket.available(100.0) == pytest.approx(100.0)

    def test_bucket_reconfigure_rejects_nonpositive(self):
        bucket = TokenBucket(rate=10.0, burst=10.0)
        with pytest.raises(ValueError):
            bucket.reconfigure(0.0, 1.0)
        with pytest.raises(ValueError):
            bucket.reconfigure(1.0, -1.0)

    def test_rl1_reconfigure_applies_to_existing_buckets(self):
        limiter = UnverifiedResponseLimiter(
            per_source_rate=100.0, per_source_burst=100.0
        )
        src = ip(1)
        assert limiter.allow(src, 0.0)  # materialises a 100-token bucket
        limiter.reconfigure(1.0, 2.0)
        assert limiter.allow(src, 0.0)
        assert limiter.allow(src, 0.0)
        assert not limiter.allow(src, 0.0)  # clamped to the new burst

    def test_rl1_reconfigure_applies_to_new_buckets(self):
        limiter = UnverifiedResponseLimiter(
            per_source_rate=100.0, per_source_burst=100.0
        )
        limiter.reconfigure(1.0, 2.0)
        assert limiter.per_source_rate == 1.0
        src = ip(2)
        assert limiter.allow(src, 0.0)
        assert limiter.allow(src, 0.0)
        assert not limiter.allow(src, 0.0)

    def test_rl2_reconfigure_applies_to_existing_buckets(self):
        limiter = VerifiedRequestLimiter(per_host_rate=100.0, per_host_burst=100.0)
        host = ip(3)
        assert limiter.allow(host, 0.0)
        limiter.reconfigure(2.0, 3.0)
        assert limiter.per_host_burst == 3.0
        allowed = sum(limiter.allow(host, 0.0) for _ in range(10))
        assert allowed == 3

    def test_limiter_reconfigure_rejects_nonpositive(self):
        limiter = UnverifiedResponseLimiter()
        with pytest.raises(ValueError):
            limiter.reconfigure(-1.0, 1.0)
