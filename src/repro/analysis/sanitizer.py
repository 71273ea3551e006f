"""Runtime determinism sanitizer: run twice, hash traces, localise drift.

The lint in :mod:`repro.analysis.rules` catches determinism hazards that
are visible in the source; this module catches the ones that are not.  An
experiment (any zero-argument callable that builds and runs simulators) is
executed twice in the same process under *allocation perturbation* — a
different amount of live ballast is allocated before each run, shifting
object addresses the way a different ``PYTHONHASHSEED`` would shift string
hashes.  Anything keyed to ``id()``-ordered sets, leftover module-level
state, wall-clock reads or the process-global RNG produces a different
event stream on the second run.

Every :class:`~repro.netsim.Simulator` the experiment constructs is
observed through :func:`repro.netsim.set_trace_collector`, and its full
event trace (virtual time, sequence number, callback qualname, argument
digests) is folded into a rolling BLAKE2b hash.  The two runs match iff
every simulator's trace digest matches, pairwise in construction order.

On mismatch a third and fourth run re-execute the experiment with
per-event capture enabled up to a window bracketing the divergence (found
from checkpoint digests), and the report names the first divergent event.
Localisation is best-effort: a nondeterminism that shifts between runs is
still *detected* by the hash mismatch even if the localisation pass
brackets a different instance of it.

Entry points: :func:`run_sanitized`, or ``python -m repro <cmd> --sanitize``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
from typing import Any, Callable

from ..netsim.simulator import (
    TRACE_CHECKPOINT_INTERVAL,
    EventTrace,
    Simulator,
    set_trace_collector,
)
from .modes import quiet_stdout

#: Extra events captured past the bracketed divergence window, so the first
#: divergent event sits safely inside the localisation pass's recording.
_WINDOW_SLACK = 2 * TRACE_CHECKPOINT_INTERVAL

#: Ballast objects allocated (and kept alive) before run ``i`` — a prime
#: stride so consecutive runs never see the same allocation layout.
_BALLAST_STRIDE = 4099


class TraceCollector:
    """Collects the :class:`EventTrace` of every simulator a run builds."""

    def __init__(self, *, keep_events: bool = False, event_limit: int | None = None):
        self.keep_events = keep_events
        self.event_limit = event_limit
        self.traces: list[EventTrace] = []

    def register(self, sim: Simulator) -> None:
        assert sim.trace is not None
        self.traces.append(sim.trace)

    @property
    def total_events(self) -> int:
        return sum(trace.count for trace in self.traces)

    def combined_hexdigest(self) -> str:
        """One digest over all simulators' trace digests, in creation order."""
        combined = hashlib.blake2b(digest_size=16)
        for trace in self.traces:
            combined.update(trace.digest())
        return combined.hexdigest()


@contextlib.contextmanager
def capture_traces(*, keep_events: bool = False, event_limit: int | None = None):
    """Context manager: trace every simulator constructed inside the block."""
    collector = TraceCollector(keep_events=keep_events, event_limit=event_limit)
    previous = set_trace_collector(collector)
    try:
        yield collector
    finally:
        set_trace_collector(previous)


@dataclasses.dataclass(slots=True)
class Divergence:
    """The first point where the two runs' event streams disagree."""

    sim_index: int
    event_index: int
    event_a: str | None
    event_b: str | None

    def __str__(self) -> str:
        lines = [
            f"first divergence: simulator #{self.sim_index}, "
            f"event #{self.event_index}",
            f"  run A: {self.event_a if self.event_a is not None else '<no event>'}",
            f"  run B: {self.event_b if self.event_b is not None else '<no event>'}",
        ]
        return "\n".join(lines)


@dataclasses.dataclass(slots=True)
class SanitizeReport:
    """Outcome of a sanitizer dual-run."""

    matched: bool
    simulators: int
    events: int
    run_digest: str
    divergence: Divergence | None = None
    notes: list[str] = dataclasses.field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.matched

    def summary(self) -> str:
        if self.matched:
            head = (
                f"sanitizer: OK — {self.simulators} simulator(s), "
                f"{self.events} events, trace {self.run_digest}"
            )
        else:
            head = (
                f"sanitizer: NONDETERMINISM DETECTED — {self.simulators} "
                f"simulator(s), {self.events} events in run A"
            )
        parts = [head]
        if self.divergence is not None:
            parts.append(str(self.divergence))
        parts.extend(f"note: {note}" for note in self.notes)
        return "\n".join(parts)


def _traced_run(
    experiment: Callable[[], Any],
    run_index: int,
    *,
    quiet: bool,
    keep_events: bool,
    event_limit: int | None,
) -> TraceCollector:
    # Live ballast perturbs the allocator so id()-derived orderings differ
    # between runs; it must stay referenced until the run completes.
    ballast = [object() for _ in range(run_index * _BALLAST_STRIDE + 1)]
    with capture_traces(keep_events=keep_events, event_limit=event_limit) as collector:
        with quiet_stdout(quiet):
            experiment()
    del ballast
    return collector


def _divergence_window(a: EventTrace, b: EventTrace) -> int:
    """Upper bound (event count) bracketing the first divergence."""
    for index, (ca, cb) in enumerate(zip(a.checkpoints, b.checkpoints)):
        if ca != cb:
            return (index + 1) * TRACE_CHECKPOINT_INTERVAL + _WINDOW_SLACK
    # checkpoints agree over the shared prefix: the divergence is in the
    # tail past the last common checkpoint (or the counts differ).
    return min(a.count, b.count) + _WINDOW_SLACK


def _first_hash_mismatch(
    a: TraceCollector, b: TraceCollector
) -> tuple[int, int] | None:
    """(sim_index, capture_window) of the first differing trace, or None."""
    for sim_index, (ta, tb) in enumerate(zip(a.traces, b.traces)):
        if ta.count != tb.count or ta.digest() != tb.digest():
            return sim_index, _divergence_window(ta, tb)
    return None


def _locate_divergence(a: TraceCollector, b: TraceCollector) -> Divergence | None:
    """First divergent event across the localisation pass's recorded traces."""
    for sim_index, (ta, tb) in enumerate(zip(a.traces, b.traces)):
        shared = min(ta.recorded, tb.recorded)
        for event_index in range(shared):
            if ta.event_digest(event_index) != tb.event_digest(event_index):
                return Divergence(
                    sim_index,
                    event_index,
                    ta.descriptions[event_index],
                    tb.descriptions[event_index],
                )
        if ta.count != tb.count:
            # one run has extra events; the first extra one is the divergence
            # when it falls inside the recorded window.
            shorter, longer = (ta, tb) if ta.count < tb.count else (tb, ta)
            if shorter.count < longer.recorded:
                extra = longer.descriptions[shorter.count]
                event_a = extra if longer is ta else None
                event_b = extra if longer is tb else None
                return Divergence(sim_index, shorter.count, event_a, event_b)
        if ta.digest() != tb.digest():
            # diverged past the capture window; detected but not localised
            return Divergence(sim_index, shared, None, None)
    if len(a.traces) != len(b.traces):
        shared_sims = min(len(a.traces), len(b.traces))
        return Divergence(shared_sims, 0, None, None)
    return None


def run_sanitized(experiment: Callable[[], Any], *, quiet: bool = True) -> SanitizeReport:
    """Execute ``experiment`` twice and compare full event traces.

    Pass 1 runs twice in O(1) trace memory (rolling hash + checkpoints).
    Only on mismatch does a localisation pass re-run the experiment with
    per-event capture bounded to the divergence window.

    ``quiet`` redirects the experiment's stdout into the void so the
    sanitizer's verdict is the only output.
    """
    run_a = _traced_run(experiment, 0, quiet=quiet, keep_events=False, event_limit=None)
    run_b = _traced_run(experiment, 1, quiet=quiet, keep_events=False, event_limit=None)

    report = SanitizeReport(
        matched=True,
        simulators=len(run_a.traces),
        events=run_a.total_events,
        run_digest=run_a.combined_hexdigest(),
    )
    if len(run_a.traces) != len(run_b.traces):
        report.matched = False
        report.divergence = Divergence(min(len(run_a.traces), len(run_b.traces)), 0, None, None)
        report.notes.append(
            f"runs constructed a different number of simulators "
            f"({len(run_a.traces)} vs {len(run_b.traces)})"
        )
        return report

    mismatch = _first_hash_mismatch(run_a, run_b)
    if mismatch is None:
        return report

    report.matched = False
    _, window = mismatch
    run_a2 = _traced_run(experiment, 2, quiet=quiet, keep_events=True, event_limit=window)
    run_b2 = _traced_run(experiment, 3, quiet=quiet, keep_events=True, event_limit=window)
    divergence = _locate_divergence(run_a2, run_b2)
    if divergence is None:
        report.notes.append(
            "trace hashes differ but the localisation pass did not reproduce "
            "the divergence (unstable nondeterminism); re-run to bracket it"
        )
        return report
    report.divergence = divergence
    if divergence.event_a is None and divergence.event_b is None:
        report.notes.append(
            "divergence detected past the capture window; event description "
            "unavailable"
        )
    return report
