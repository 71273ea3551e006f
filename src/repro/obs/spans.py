"""Hierarchical spans over virtual time.

A span is one step of a query's lifecycle — the stub's attempt, the
guard's scheme decision, the recursive's resolution, the ANS's serve —
linked parent-to-child so a finished run can be rendered as a tree:

    lrs.interaction qname=a.example.
      lrs.leg leg=first
      guard.decision scheme=ns_name outcome=challenge
      ...

Spans live purely on the virtual clock and never touch the simulator:
starting or ending a span schedules nothing and draws no randomness, so
span collection cannot perturb an event trace (rule W002 enforces this).

The log is bounded: past ``max_spans`` new starts are counted in
``dropped`` instead of stored, so tracing a long attack run cannot grow
memory without limit.
"""

from __future__ import annotations

from typing import Callable, Iterator


class Span:
    """One timed step, possibly parented to another span."""

    __slots__ = (
        "span_id",
        "parent_id",
        "name",
        "start",
        "end",
        "attrs",
        "_log",
    )

    def __init__(
        self,
        span_id: int,
        parent_id: int | None,
        name: str,
        start: float,
        attrs: dict,
        log: "SpanLog",
    ):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.end: float | None = None
        self.attrs = attrs
        self._log = log

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float | None:
        if self.end is None:
            return None
        return self.end - self.start

    def set(self, **attrs) -> "Span":
        self.attrs.update(attrs)
        return self

    def finish(self, *, at: float | None = None, **attrs) -> "Span":
        """End the span (idempotent; first finish wins)."""
        if attrs:
            self.attrs.update(attrs)
        if self.end is None:
            self.end = self._log.now() if at is None else at
        return self

    def child(self, name: str, *, at: float | None = None, **attrs) -> "Span":
        return self._log.start(name, parent=self, at=at, **attrs)

    def snapshot(self) -> dict:
        # Attrs may hold rich objects (Name, IPv4Address) — instrumentation
        # sites pass them raw to keep the hot path cheap; stringify here, on
        # the cold export path, so snapshots stay JSON-safe.
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "attrs": {
                k: v if isinstance(v, (str, int, float, bool, type(None))) else str(v)
                for k, v in self.attrs.items()
            },
        }

    def __repr__(self) -> str:
        state = f"end={self.end}" if self.end is not None else "open"
        return f"Span(#{self.span_id} {self.name} start={self.start} {state})"


class _NullSpan:
    """Inert stand-in returned when the log is at capacity.

    Accepting the same calls as :class:`Span` keeps instrumentation sites
    unconditional — they never need to know the log overflowed.  It is
    falsy, so hot paths can use ``if span:`` to skip bookkeeping (side
    tables, packet tagging) that only matters for spans actually stored.
    """

    __slots__ = ()

    span_id = -1
    parent_id = None
    name = "<dropped>"
    start = 0.0
    end = 0.0
    finished = True
    duration = 0.0
    attrs: dict = {}

    def __bool__(self) -> bool:
        return False

    def set(self, **attrs) -> "_NullSpan":
        return self

    def finish(self, *, at: float | None = None, **attrs) -> "_NullSpan":
        return self

    def child(self, name: str, *, at: float | None = None, **attrs) -> "_NullSpan":
        return self

    def snapshot(self) -> dict:
        return {}


NULL_SPAN = _NullSpan()

#: Default cap on stored spans — generous for experiments, finite for floods.
DEFAULT_MAX_SPANS = 200_000


class SpanLog:
    """Append-only store of spans sharing one virtual clock."""

    def __init__(
        self,
        clock: Callable[[], float] | None = None,
        *,
        max_spans: int = DEFAULT_MAX_SPANS,
    ):
        self._clock = clock if clock is not None else (lambda: 0.0)
        self.max_spans = max_spans
        self.spans: list[Span] = []
        self.dropped = 0
        #: Set once the cap is reached.  Hot instrumentation sites check it
        #: to skip span construction entirely, so ``dropped`` is a lower
        #: bound on the spans turned away.
        self.exhausted = max_spans <= 0
        self._next_id = 1

    def now(self) -> float:
        return self._clock()

    def set_clock(self, clock: Callable[[], float]) -> None:
        self._clock = clock

    def start(
        self,
        name: str,
        *,
        parent: "Span | _NullSpan | None" = None,
        at: float | None = None,
        **attrs,
    ) -> Span | _NullSpan:
        """Open a span; ``at`` overrides the start time (planned timelines)."""
        if len(self.spans) >= self.max_spans:
            self.exhausted = True
            self.dropped += 1
            return NULL_SPAN
        # NULL_SPAN parents (falsy) contribute no linkage; **attrs is already
        # a fresh dict, so it is stored without copying
        span = Span(
            self._next_id,
            parent.span_id if parent else None,
            name,
            self._clock() if at is None else at,
            attrs,
            self,
        )
        self._next_id += 1
        self.spans.append(span)
        return span

    def point(
        self,
        name: str,
        *,
        parent: "Span | _NullSpan | None" = None,
        at: float | None = None,
        **attrs,
    ) -> Span | _NullSpan:
        """A zero-duration span — an instantaneous event on the timeline."""
        when = self._clock() if at is None else at
        span = self.start(name, parent=parent, at=when, **attrs)
        span.finish(at=when)
        return span

    # -- queries -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.spans)

    def __iter__(self) -> Iterator[Span]:
        return iter(self.spans)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def children_of(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent_id == span.span_id]

    def roots(self) -> list[Span]:
        return [s for s in self.spans if s.parent_id is None]

    def snapshot(self) -> list[dict]:
        return [s.snapshot() for s in self.spans]

    def render(self, *, limit: int | None = None) -> str:
        """Indented tree of all spans, roots in start order."""
        lines: list[str] = []

        def emit(span: Span, depth: int) -> None:
            if limit is not None and len(lines) >= limit:
                return
            dur = span.duration
            dur_text = f" dur={dur * 1000:.3f}ms" if dur is not None else " (open)"
            attr_text = "".join(
                f" {k}={v}" for k, v in sorted(span.attrs.items())
            )
            lines.append(
                f"{'  ' * depth}{span.name} @{span.start:.6f}{dur_text}{attr_text}"
            )
            for child in sorted(
                self.children_of(span), key=lambda s: (s.start, s.span_id)
            ):
                emit(child, depth + 1)

        for root in sorted(self.roots(), key=lambda s: (s.start, s.span_id)):
            emit(root, 0)
            if limit is not None and len(lines) >= limit:
                lines.append(f"... ({len(self.spans)} spans total)")
                break
        if self.dropped:
            lines.append(f"... {self.dropped} spans dropped at cap {self.max_spans}")
        return "\n".join(lines)
