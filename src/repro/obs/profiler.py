"""Wall-clock profiler for the simulator's event loop.

This is the one deliberate exception to the repo's "no wall-clock"
rule: the profiler measures how fast the *simulator itself* runs on the
host — events per second, which handler callables burn the time, how
deep the event heap gets — to seed the repo's perf trajectory
(``scripts/BENCH_profile.json``).  Wall-clock readings never feed back into
simulated behaviour; they are recorded and exported, nothing else, so
determinism is untouched.

The simulator drives it: when ``sim.step_profiler`` is set, ``step()``
brackets each callback with ``begin()`` / ``record()``.  When unset (the
default) the only cost is one ``is None`` check per event.
"""

from __future__ import annotations

import time


def _callable_key(callback) -> str:
    """Stable attribution label for an event callback.

    Bound methods of different instances collapse onto one underlying
    function; wrappers advertising ``__wrapped__`` (packet-tracer taps,
    ``functools.wraps`` decorators) are unwound so the time lands on the
    callable actually doing the work, not the closure around it; partials
    and lambdas fall back to their repr-ish name.
    """
    func = getattr(callback, "__func__", callback)
    for _ in range(8):  # bounded: a pathological cycle must not hang us
        wrapped = getattr(func, "__wrapped__", None)
        if wrapped is None:
            break
        func = getattr(wrapped, "__func__", wrapped)
    qualname = getattr(func, "__qualname__", None)
    if qualname is None:
        qualname = getattr(func, "__name__", repr(func))
    module = getattr(func, "__module__", "") or ""
    return f"{module}.{qualname}" if module else qualname


class HandlerStats:
    __slots__ = ("calls", "seconds")

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0


class WallClockProfiler:
    """Attributes host time to event-handler callables.

    Observe-only by construction: it reads the host clock (allowed here,
    and only here) and mutates its own tallies — it never schedules
    events or draws randomness.
    """

    def __init__(self):
        self.events = 0
        self.total_seconds = 0.0
        self.max_heap_depth = 0
        self.handlers: dict[str, HandlerStats] = {}

    # Called from Simulator.step around each callback.
    def begin(self) -> float:
        return time.perf_counter()  # repro: allow[D001]

    def record(self, callback, elapsed: float, heap_depth: int) -> None:
        self.events += 1
        self.total_seconds += elapsed
        if heap_depth > self.max_heap_depth:
            self.max_heap_depth = heap_depth
        key = _callable_key(callback)
        stats = self.handlers.get(key)
        if stats is None:
            stats = self.handlers[key] = HandlerStats()
        stats.calls += 1
        stats.seconds += elapsed

    def elapsed_since(self, t0: float) -> float:
        return time.perf_counter() - t0  # repro: allow[D001]

    # -- results -------------------------------------------------------------

    def events_per_second(self) -> float:
        if self.total_seconds <= 0:
            return 0.0
        return self.events / self.total_seconds

    def top_handlers(self, n: int = 10) -> list[tuple[str, HandlerStats]]:
        ranked = sorted(
            self.handlers.items(), key=lambda kv: (-kv[1].seconds, kv[0])
        )
        return ranked[:n]

    def snapshot(self) -> dict:
        return {
            "events": self.events,
            "total_seconds": self.total_seconds,
            "events_per_second": self.events_per_second(),
            "max_heap_depth": self.max_heap_depth,
            "handlers": {
                key: {"calls": st.calls, "seconds": st.seconds}
                for key, st in sorted(self.handlers.items())
            },
        }

    def report(self, *, top: int = 10) -> str:
        lines = [
            f"events handled        {self.events}",
            f"handler wall time     {self.total_seconds:.4f}s",
            f"events / second       {self.events_per_second():,.0f}",
            f"max event-heap depth  {self.max_heap_depth}",
            "",
            f"{'handler':<60} {'calls':>8} {'seconds':>9} {'share':>6}",
        ]
        total = self.total_seconds or 1.0
        for key, st in self.top_handlers(top):
            lines.append(
                f"{key:<60} {st.calls:>8} {st.seconds:>9.4f} "
                f"{st.seconds / total:>5.1%}"
            )
        return "\n".join(lines)


def write_bench_profile(
    profiler: WallClockProfiler, path: str, *, date: str | None = None
) -> dict:
    """Write the profiler snapshot as a ``BENCH_*.json`` document, appending
    this run to the document's dated events/sec trajectory."""
    from .trajectory import append_trajectory  # not on the `import repro` path

    events_per_second = profiler.events_per_second()
    return append_trajectory(
        path,
        benchmark="simulator-event-loop",
        unit="events/sec",
        value=events_per_second,
        entry={"events_per_second": events_per_second, "events": profiler.events},
        detail=profiler.snapshot(),
        date=date,
        legacy_key="events_per_second",
    )
