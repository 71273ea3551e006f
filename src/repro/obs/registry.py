"""Typed metric registry: counters, gauges and histograms with labels.

This replaces the scattered per-component stats dicts with one queryable
store.  Three metric kinds cover everything the paper's evaluation plots:

* :class:`Counter` — monotone totals (packets seen, drops per reason).
  With ``interval`` set, increments additionally accumulate into
  virtual-time buckets, yielding the throughput-over-time series of
  Figures 5–7 *without scheduling a single sampling event*: the bucket
  index is derived from the registry clock at increment time.
* :class:`Gauge` — last-write-wins level (CPU utilisation, queue depth).
  With ``track_history=True`` every ``set`` appends an exact
  ``(time, value)`` sample (the containment timeline's storage).
* :class:`Histogram` — bucketed distributions (request latency).  Bucket
  edges are inclusive upper bounds (Prometheus ``le`` semantics).

Everything here is **observe-only**: the registry never schedules events
and never touches simulator randomness, so enabling it cannot perturb an
event trace (rule W002 machine-checks this for the whole package).
Iteration orders are insertion-or-sorted, never hash-dependent.
"""

from __future__ import annotations

import bisect
import math
from typing import Callable, Iterator

#: Default histogram bucket upper bounds (seconds-flavoured, but unitless).
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

#: Default width of a time bucket for ``interval``-enabled counters.
DEFAULT_SERIES_INTERVAL = 0.1

LabelsTuple = tuple[tuple[str, str], ...]


def _labels_key(labels: dict[str, str]) -> LabelsTuple:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))  # sorting is the canonical-key contract


def format_labels(labels: LabelsTuple) -> str:
    """``{a=1,b=2}`` for a labels tuple; empty string when unlabelled."""
    if not labels:
        return ""
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return "{" + inner + "}"


class Metric:
    """Common identity shared by every metric kind."""

    kind: str = "metric"

    __slots__ = ("name", "labels", "description")

    def __init__(self, name: str, labels: LabelsTuple, description: str):
        self.name = name
        self.labels = labels
        self.description = description

    @property
    def full_name(self) -> str:
        return f"{self.name}{format_labels(self.labels)}"

    def snapshot(self) -> dict:
        """A JSON-safe description of this metric's current state."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.full_name})"


class Counter(Metric):
    """A monotone total, optionally time-bucketed on the virtual clock."""

    kind = "counter"

    __slots__ = ("value", "interval", "_buckets", "_clock")

    def __init__(
        self,
        name: str,
        labels: LabelsTuple,
        description: str,
        *,
        clock: Callable[[], float],
        interval: float | None = None,
    ):
        super().__init__(name, labels, description)
        if interval is not None and interval <= 0:
            raise ValueError("series interval must be positive")
        self.value = 0.0
        self.interval = interval
        self._buckets: dict[int, float] = {}
        self._clock = clock

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge for levels")
        self.value += amount
        if self.interval is not None:
            bucket = int(self._clock() / self.interval)
            self._buckets[bucket] = self._buckets.get(bucket, 0.0) + amount

    def series(self) -> list[tuple[float, float]]:
        """Sorted ``(bucket_start_time, amount_in_bucket)`` pairs."""
        if self.interval is None:
            return []
        return [(b * self.interval, v) for b, v in sorted(self._buckets.items())]

    def rate_series(self) -> list[tuple[float, float]]:
        """Sorted ``(bucket_start_time, amount / interval)`` pairs."""
        if self.interval is None:
            return []
        return [(t, v / self.interval) for t, v in self.series()]

    def snapshot(self) -> dict:
        data: dict = {
            "kind": self.kind,
            "name": self.name,
            "labels": dict(self.labels),
            "value": self.value,
        }
        if self.interval is not None:
            data["interval"] = self.interval
            data["series"] = self.series()
        return data


class Gauge(Metric):
    """A level: set/add, with optional exact sample history."""

    kind = "gauge"

    __slots__ = ("value", "track_history", "history", "_clock")

    def __init__(
        self,
        name: str,
        labels: LabelsTuple,
        description: str,
        *,
        clock: Callable[[], float],
        track_history: bool = False,
    ):
        super().__init__(name, labels, description)
        self.value = 0.0
        self.track_history = track_history
        self.history: list[tuple[float, float]] = []
        self._clock = clock

    def set(self, value: float) -> None:
        self.value = float(value)
        if self.track_history:
            self.history.append((self._clock(), self.value))

    def add(self, amount: float) -> None:
        self.set(self.value + amount)

    def mean(self) -> float:
        if not self.history:
            return 0.0
        return sum(v for _, v in self.history) / len(self.history)

    def series(self) -> list[tuple[float, float]]:
        return list(self.history)

    def snapshot(self) -> dict:
        data: dict = {
            "kind": self.kind,
            "name": self.name,
            "labels": dict(self.labels),
            "value": self.value,
        }
        if self.track_history:
            data["series"] = self.series()
        return data


class Histogram(Metric):
    """A distribution over fixed buckets (inclusive upper bounds).

    ``observe(v)`` lands in the first bucket whose upper bound is >= v;
    values above the last edge land in the implicit +inf overflow bucket.
    """

    kind = "histogram"

    __slots__ = ("buckets", "counts", "count", "sum", "min", "max")

    def __init__(
        self,
        name: str,
        labels: LabelsTuple,
        description: str,
        *,
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ):
        super().__init__(name, labels, description)
        edges = tuple(float(b) for b in buckets)
        if not edges or list(edges) != sorted(edges) or len(set(edges)) != len(edges):
            raise ValueError("histogram buckets must be strictly increasing")
        self.buckets = edges
        self.counts = [0] * (len(edges) + 1)  # + overflow
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        index = bisect.bisect_left(self.buckets, value)
        self.counts[index] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def cumulative(self) -> list[tuple[float, int]]:
        """``(upper_bound, count_le)`` pairs, ending with ``(inf, count)``."""
        out: list[tuple[float, int]] = []
        running = 0
        for edge, n in zip(self.buckets, self.counts):
            running += n
            out.append((edge, running))
        out.append((math.inf, self.count))
        return out

    def percentile(self, p: float) -> float:
        """Upper bound of the bucket containing the p-th percentile."""
        if not self.count:
            return math.nan
        threshold = p / 100.0 * self.count
        for edge, running in self.cumulative():
            if running >= threshold:
                return edge
        return math.inf  # pragma: no cover - cumulative always reaches count

    def snapshot(self) -> dict:
        return {
            "kind": self.kind,
            "name": self.name,
            "labels": dict(self.labels),
            "count": self.count,
            "sum": self.sum,
            "min": None if self.count == 0 else self.min,
            "max": None if self.count == 0 else self.max,
            "buckets": list(self.buckets),
            "counts": list(self.counts),
        }


class MetricRegistry:
    """The typed store: one instance per observability context.

    Metrics are created on first use and looked up by ``(name, labels)``;
    asking for an existing name with a different kind is an error (it
    would silently split one logical metric into two stores).
    """

    def __init__(self, clock: Callable[[], float] | None = None):
        self._clock = clock if clock is not None else (lambda: 0.0)
        self._metrics: dict[tuple[str, LabelsTuple], Metric] = {}

    # -- clock ---------------------------------------------------------------

    def now(self) -> float:
        return self._clock()

    def set_clock(self, clock: Callable[[], float]) -> None:
        self._clock = clock

    def _tick(self) -> float:
        return self._clock()

    # -- creation / lookup ---------------------------------------------------

    def _get(self, kind: type, name: str, labels: dict[str, str]) -> Metric | None:
        key = (name, _labels_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            return None
        if not isinstance(metric, kind):
            raise TypeError(
                f"metric {name!r} already registered as {metric.kind}, "
                f"not {kind.__name__.lower()}"
            )
        return metric

    def counter(
        self,
        name: str,
        description: str = "",
        *,
        interval: float | None = None,
        **labels: str,
    ) -> Counter:
        existing = self._get(Counter, name, labels)
        if existing is not None:
            return existing
        metric = Counter(
            name, _labels_key(labels), description, clock=self._tick, interval=interval
        )
        self._metrics[(name, metric.labels)] = metric
        return metric

    def gauge(
        self,
        name: str,
        description: str = "",
        *,
        track_history: bool = False,
        **labels: str,
    ) -> Gauge:
        existing = self._get(Gauge, name, labels)
        if existing is not None:
            return existing
        metric = Gauge(
            name,
            _labels_key(labels),
            description,
            clock=self._tick,
            track_history=track_history,
        )
        self._metrics[(name, metric.labels)] = metric
        return metric

    def histogram(
        self,
        name: str,
        description: str = "",
        *,
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
        **labels: str,
    ) -> Histogram:
        existing = self._get(Histogram, name, labels)
        if existing is not None:
            return existing
        metric = Histogram(name, _labels_key(labels), description, buckets=buckets)
        self._metrics[(name, metric.labels)] = metric
        return metric

    # -- introspection -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self) -> Iterator[Metric]:
        """Metrics in deterministic (name, labels) order."""
        for key in sorted(self._metrics):
            yield self._metrics[key]

    def find(self, name: str) -> list[Metric]:
        """Every metric (any label set) registered under ``name``."""
        return [m for m in self if m.name == name]

    def snapshot(self) -> list[dict]:
        """JSON-safe snapshots of every metric, deterministically ordered."""
        return [metric.snapshot() for metric in self]
