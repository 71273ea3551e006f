"""Rate limiting for the guard pipeline (paper Figure 4).

* **Rate-Limiter1** caps the rate of *unverified* responses (cookie grants,
  fabricated referrals, truncation replies) per claimed requester, tracking
  the top requesters so the ANS cannot be used as a traffic reflector.
* **Rate-Limiter2** caps the *verified* request rate per real host, which is
  the defence against non-spoofed (zombie) floods and against probing
  attacks on the small COOKIE2 range (§III.G).

Both are built from token buckets.  The top-requester tracker uses the
space-saving algorithm so memory stays bounded no matter how many spoofed
sources an attacker invents, and keeps a min-ordered heap beside its
counters so the per-packet cost stays bounded too: evicting for a
never-seen source is amortised O(log capacity), not a scan of the table.

Pure core: every method takes ``now`` explicitly (the Clock port as an
argument), draws no randomness and touches no transport — the same
accounting serves the simulator and a socket front end unchanged.
"""

from __future__ import annotations

import dataclasses
import heapq
from collections import OrderedDict
from ipaddress import IPv4Address

__layer__ = "pure-core"

#: Shared-state declaration for the race analyser
#: (``repro.analysis.races``).  Token-bucket state is guarded even though
#: refills look idempotent: ``consume`` at equal virtual time is
#: last-writer-wins on ``_tokens``.
__shared_state__ = {
    # ``rate``/``burst`` and the limiters' per-source settings are guarded
    # too since PR 7: the control plane hot-tunes them via ``reconfigure``
    # from its boundary-lane sweep, so they are scheduler-visible state.
    "TokenBucket": {"guarded": ["_tokens", "_updated_at", "rate", "burst"]},
    "TopRequesterTracker": {
        "guarded": ["_counts", "_min_heap"],
        "commutative": ["total"],
    },
    "UnverifiedResponseLimiter": {
        "guarded": ["_buckets", "tracker", "per_source_rate", "per_source_burst"],
        "commutative": ["allowed", "denied"],
    },
    "VerifiedRequestLimiter": {
        "guarded": ["_buckets", "per_host_rate", "per_host_burst"],
        "commutative": ["allowed", "denied"],
    },
    "RateEstimator": {"guarded": ["_count", "_window_start", "_last_rate"]},
}

#: State-bound declaration for the memory analyser
#: (``repro.analysis.memory``).  Each table is keyed by claimed source
#: address — spoofable by construction — so each carries its own
#: eviction: the limiters keep LRU-ordered buckets (``popitem`` at the
#: cap, O(1)), the tracker is a space-saving heavy-hitter summary that
#: displaces its minimum-count victim at capacity — found through
#: ``_min_heap`` (one item per counter, so the same bound) in amortised
#: O(log capacity), never by scanning ``_counts``.
__state_bounds__ = {
    "TopRequesterTracker": {
        "_counts": {"bound": 4096, "evicted_by": "cap", "keyed_by": "attacker"},
        "_min_heap": {"bound": 4096, "evicted_by": "cap", "keyed_by": "attacker"},
    },
    "UnverifiedResponseLimiter": {
        "_buckets": {"bound": 8192, "evicted_by": "lru", "keyed_by": "attacker"},
    },
    "VerifiedRequestLimiter": {
        "_buckets": {"bound": 8192, "evicted_by": "lru", "keyed_by": "attacker"},
    },
}


class TokenBucket:
    """A standard token bucket: ``rate`` tokens/sec, ``burst`` capacity."""

    __slots__ = ("rate", "burst", "_tokens", "_updated_at")

    def __init__(self, rate: float, burst: float, *, now: float = 0.0):
        if rate <= 0 or burst <= 0:
            raise ValueError("rate and burst must be positive")
        self.rate = rate
        self.burst = burst
        self._tokens = burst
        self._updated_at = now

    def consume(self, now: float, tokens: float = 1.0) -> bool:
        """Take ``tokens`` if available; returns False when over the limit."""
        if now > self._updated_at:
            self._tokens = min(self.burst, self._tokens + (now - self._updated_at) * self.rate)
            self._updated_at = now
        if self._tokens >= tokens:
            self._tokens -= tokens
            return True
        return False

    def available(self, now: float) -> float:
        if now > self._updated_at:
            self._tokens = min(self.burst, self._tokens + (now - self._updated_at) * self.rate)
            self._updated_at = now
        return self._tokens

    def reconfigure(self, rate: float, burst: float) -> None:
        """Hot-tune the bucket without resetting its fill level.

        The current fill is clamped to the new burst so tightening the
        limit takes effect immediately instead of after the old surplus
        drains.
        """
        if rate <= 0 or burst <= 0:
            raise ValueError("rate and burst must be positive")
        self.rate = rate
        self.burst = burst
        self._tokens = min(self._tokens, burst)


@dataclasses.dataclass(slots=True)
class _TopEntry:
    count: int
    error: int  # space-saving overestimation bound


class TopRequesterTracker:
    """Space-saving heavy-hitter tracker over source addresses.

    Holds at most ``capacity`` counters; the classic guarantee applies: any
    source with true count > N/capacity is present in the table.
    """

    __slots__ = ("capacity", "_counts", "_min_heap", "total")

    def __init__(self, capacity: int = 1024):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._counts: dict[IPv4Address, _TopEntry] = {}
        #: Min-ordered index beside ``_counts``: exactly one ``(count,
        #: insertion_seq, source, entry)`` per tracked source, so
        #: ``len(_min_heap) == len(_counts) <= capacity`` after every
        #: ``observe``.  A hit bumps only ``entry.count``; the recorded
        #: count goes stale (never too high) and is refreshed when the
        #: item surfaces at eviction.  ``insertion_seq`` is ``total`` at
        #: insertion, so ties break towards the first-inserted source —
        #: the victim a front-to-back ``min()`` over ``_counts`` picks.
        self._min_heap: list[tuple[int, int, IPv4Address, _TopEntry]] = []
        self.total = 0

    def observe(self, source: IPv4Address) -> int:
        """Count one request from ``source``; returns its (over)count."""
        self.total += 1
        entry = self._counts.get(source)
        if entry is not None:
            entry.count += 1
            return entry.count
        heap = self._min_heap
        if len(self._counts) < self.capacity:
            entry = self._counts[source] = _TopEntry(count=1, error=0)
            heapq.heappush(heap, (1, self.total, source, entry))
            return 1
        # evict the minimum counter, inheriting its count as error bound
        while True:
            floor, seq, victim, entry = heap[0]
            if entry.count == floor:
                break
            heapq.heapreplace(heap, (entry.count, seq, victim, entry))
        del self._counts[victim]
        entry = self._counts[source] = _TopEntry(count=floor + 1, error=floor)
        heapq.heapreplace(heap, (floor + 1, self.total, source, entry))
        return floor + 1

    def count(self, source: IPv4Address) -> int:
        entry = self._counts.get(source)
        return entry.count if entry else 0

    def top(self, k: int) -> list[tuple[IPv4Address, int]]:
        ranked = sorted(self._counts.items(), key=lambda item: item[1].count, reverse=True)
        return [(ip, entry.count) for ip, entry in ranked[:k]]


class UnverifiedResponseLimiter:
    """Rate-Limiter1: throttles unverified responses per claimed source.

    Every response to a not-yet-verified requester consumes from that
    requester's bucket; sources that are not heavy hitters effectively never
    hit the limit, while a reflection attack aimed at one victim address is
    clamped to ``per_source_rate`` responses/sec.
    """

    def __init__(
        self,
        *,
        per_source_rate: float = 100.0,
        per_source_burst: float = 200.0,
        tracker_capacity: int = 4096,
        max_buckets: int = 8192,
    ):
        self.per_source_rate = per_source_rate
        self.per_source_burst = per_source_burst
        self.tracker = TopRequesterTracker(tracker_capacity)
        self._buckets: OrderedDict[IPv4Address, TokenBucket] = OrderedDict()
        self._max_buckets = max_buckets
        self.allowed = 0
        self.denied = 0

    def allow(self, source: IPv4Address, now: float) -> bool:
        self.tracker.observe(source)
        bucket = self._buckets.get(source)
        if bucket is None:
            bucket = TokenBucket(self.per_source_rate, self.per_source_burst, now=now)
            self._buckets[source] = bucket
            if len(self._buckets) > self._max_buckets:
                self._buckets.popitem(last=False)
        else:
            self._buckets.move_to_end(source)
        if bucket.consume(now):
            self.allowed += 1
            return True
        self.denied += 1
        return False

    def reconfigure(self, rate: float, burst: float) -> None:
        """Hot-tune the per-source limit for existing and future buckets."""
        if rate <= 0 or burst <= 0:
            raise ValueError("rate and burst must be positive")
        self.per_source_rate = rate
        self.per_source_burst = burst
        for bucket in self._buckets.values():
            bucket.reconfigure(rate, burst)

    def reset(self) -> None:
        """Drop all soft state (bucket fill, heavy-hitter counts and their
        index) — what a guard crash loses; configuration survives."""
        self._buckets.clear()
        self.tracker = TopRequesterTracker(self.tracker.capacity)


class VerifiedRequestLimiter:
    """Rate-Limiter2: per-verified-host request rate limit.

    The paper sets this to "a nominal rate, which is usually very low" —
    high enough for any real LRS, low enough that a single compromised host
    (or a correctly-guessed COOKIE2 value) cannot saturate the ANS.
    """

    def __init__(
        self,
        *,
        per_host_rate: float = 4000.0,
        per_host_burst: float = 8000.0,
        max_buckets: int = 8192,
    ):
        self.per_host_rate = per_host_rate
        self.per_host_burst = per_host_burst
        self._buckets: OrderedDict[IPv4Address, TokenBucket] = OrderedDict()
        self._max_buckets = max_buckets
        self.allowed = 0
        self.denied = 0

    def allow(self, source: IPv4Address, now: float) -> bool:
        bucket = self._buckets.get(source)
        if bucket is None:
            bucket = TokenBucket(self.per_host_rate, self.per_host_burst, now=now)
            self._buckets[source] = bucket
            if len(self._buckets) > self._max_buckets:
                self._buckets.popitem(last=False)
        else:
            self._buckets.move_to_end(source)
        if bucket.consume(now):
            self.allowed += 1
            return True
        self.denied += 1
        return False

    def reconfigure(self, rate: float, burst: float) -> None:
        """Hot-tune the per-host limit for existing and future buckets."""
        if rate <= 0 or burst <= 0:
            raise ValueError("rate and burst must be positive")
        self.per_host_rate = rate
        self.per_host_burst = burst
        for bucket in self._buckets.values():
            bucket.reconfigure(rate, burst)

    def reset(self) -> None:
        """Drop all soft state (bucket fill) — configuration survives."""
        self._buckets.clear()


class RateEstimator:
    """Sliding-window estimate of the incoming request rate.

    Drives the guard's activation threshold: spoof detection engages only
    when the offered load exceeds the protected server's capacity (§IV.C
    enables it at 14K req/s).
    """

    __slots__ = ("window", "_count", "_window_start", "_last_rate")

    def __init__(self, window: float = 0.1):
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = window
        self._count = 0
        self._window_start = 0.0
        self._last_rate = 0.0

    def observe(self, now: float) -> float:
        """Count one arrival; returns the current rate estimate."""
        if now - self._window_start >= self.window:
            self._last_rate = self._count / (now - self._window_start)
            self._window_start = now
            self._count = 0
        self._count += 1
        # take the in-progress window into account so ramp-ups are seen fast
        return max(self._last_rate, self._count / self.window)

    def rate_now(self, now: float) -> float:
        """Current estimate without counting an arrival."""
        if now - self._window_start >= self.window and self._count:
            self._last_rate = self._count / (now - self._window_start)
            self._window_start = now
            self._count = 0
        return max(self._last_rate, self._count / self.window)

    @property
    def rate(self) -> float:
        return self._last_rate
