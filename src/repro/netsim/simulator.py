"""Deterministic discrete-event simulation core.

The :class:`Simulator` owns virtual time and a binary-heap event queue.
Everything in the testbed — link propagation, CPU service completion,
retransmission timers, load generators — is an event scheduled here, so a
run with the same seed is bit-for-bit reproducible.

That reproducibility claim is machine-checked rather than folklore:

* ``repro.analysis`` lints the source tree for determinism hazards
  (wall-clock reads, unseeded randomness, unordered iteration feeding the
  scheduler);
* an :class:`EventTrace` can hash the full executed event sequence —
  ``Simulator(trace_hash=True)`` — and the runtime sanitizer
  (:mod:`repro.analysis.sanitizer`, ``python -m repro <cmd> --sanitize``)
  runs an experiment twice under allocation perturbation and compares
  traces, reporting the first divergent event on mismatch.

Simultaneity semantics (see DESIGN.md, "Simultaneity semantics"): events
share an *instant* when they have equal virtual time.  Within an instant,
events run in (priority, insertion) order — the **boundary lane**
(:data:`BOUNDARY_PRIORITY`) models instantaneous state transitions (fault
onset, soft-state expiry sweeps) that by contract apply *before* any
same-instant traffic in the default lane; within one lane the tie-break
is FIFO on scheduling order.  Events at equal ``(time, priority)`` form a
*tie group*; the race detector (:mod:`repro.analysis.races`) observes and
permutes tie groups through the hook installed by :func:`set_tie_hook`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import heapq
import itertools
import random  # repro: allow[D002] - this module IS the seeded-RNG plumbing
import sys
from math import inf, isfinite
from typing import Any, Callable

#: Events per rolling-hash checkpoint in :class:`EventTrace`.  Checkpoints
#: let the sanitizer localise a divergence to a ~256-event window without
#: storing per-event state on the (cheap) first pass.
TRACE_CHECKPOINT_INTERVAL = 256

#: Default scheduling lane: ordinary traffic and timers.
DEFAULT_PRIORITY = 0

#: The boundary lane: state transitions that apply "at the start of the
#: instant" — fault onset/revert, expiry sweeps, idle-connection reaping.
#: Two events at the same virtual time but in different lanes are ordered
#: by contract, not by scheduling accident, so they never form a tie group
#: and the race detector does not treat their interleaving as a race.
BOUNDARY_PRIORITY = -1

#: Tombstone compaction floor: heaps smaller than this are never rebuilt
#: (the scan would cost more than the tombstones do).
_COMPACT_MIN_TOMBSTONES = 64


def _describe_value(value: Any) -> str:
    """A deterministic, id-free description of a callback argument.

    ``repr`` of an arbitrary object embeds its memory address, which differs
    between two runs in the same process — exactly the noise a determinism
    trace must not contain.  Only types whose representations are known to
    be stable are rendered in full; everything else falls back to its type
    name plus a ``name`` attribute when one exists (nodes, links and most
    testbed actors carry one).  Objects may opt into richer descriptions by
    defining ``trace_digest() -> str``.
    """
    digest_fn = getattr(value, "trace_digest", None)
    if callable(digest_fn):
        return str(digest_fn())
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return repr(value)
    if isinstance(value, (tuple, list)):
        inner = ",".join(_describe_value(item) for item in value)
        return f"[{inner}]" if isinstance(value, list) else f"({inner})"
    cls = type(value)
    # ipaddress / enum / Name-style value objects have stable reprs and no
    # trace_digest hook; detect them by module rather than trusting every
    # custom __repr__ (dataclass reprs recurse into fields that may not be
    # stable).
    if cls.__module__ in ("ipaddress", "enum"):
        return str(value)
    name = getattr(value, "name", None)
    if isinstance(name, str):
        return f"{cls.__qualname__}<{name}>"
    return cls.__qualname__


def _describe_callback(callback: Callable[..., Any]) -> str:
    """Stable label for an event callback: qualname plus owner identity."""
    func = callback
    prefix = ""
    partial_args = getattr(callback, "func", None)
    if partial_args is not None and hasattr(callback, "args"):  # functools.partial
        func = callback.func  # type: ignore[union-attr]
        prefix = "partial:"
    qualname = getattr(func, "__qualname__", None) or type(func).__qualname__
    owner = getattr(func, "__self__", None)
    if owner is not None:
        owner_name = getattr(owner, "name", None)
        if isinstance(owner_name, str):
            return f"{prefix}{qualname}<{owner_name}>"
    return prefix + qualname


class EventTrace:
    """A rolling hash of every event a :class:`Simulator` executes.

    Each executed event contributes a deterministic description — virtual
    time, scheduling sequence number, callback qualified name, argument
    digests — to a BLAKE2b rolling hash.  Two runs of the same experiment
    are event-for-event identical iff their final digests match.

    Modes:

    * default ("hash"): O(1) memory — the rolling hash plus one checkpoint
      digest every :data:`TRACE_CHECKPOINT_INTERVAL` events, enough for the
      sanitizer to bracket a divergence cheaply;
    * ``keep_events=True``: additionally store an 8-byte digest and the full
      description per event (up to ``event_limit`` events), enabling exact
      first-divergence localisation.
    """

    __slots__ = (
        "count",
        "checkpoints",
        "keep_events",
        "event_limit",
        "event_digests",
        "descriptions",
        "_hash",
    )

    def __init__(self, *, keep_events: bool = False, event_limit: int | None = None):
        self._hash = hashlib.blake2b(digest_size=16)
        self.count = 0
        self.checkpoints: list[bytes] = []
        self.keep_events = keep_events
        self.event_limit = event_limit
        self.event_digests = bytearray()  # 8 bytes per recorded event
        self.descriptions: list[str] = []

    def record(
        self, time: float, sequence: int, callback: Callable[..., Any], args: tuple
    ) -> None:
        """Fold one executed event into the trace."""
        arg_text = ",".join(_describe_value(a) for a in args)
        description = f"t={time!r} #{sequence} {_describe_callback(callback)}({arg_text})"
        self._hash.update(description.encode("utf-8", "backslashreplace"))
        self._hash.update(b"\x00")
        self.count += 1
        if self.keep_events and (
            self.event_limit is None or self.count <= self.event_limit
        ):
            self.event_digests += self._hash.digest()[:8]
            self.descriptions.append(description)
        if self.count % TRACE_CHECKPOINT_INTERVAL == 0:
            self.checkpoints.append(self._hash.digest())

    @property
    def recorded(self) -> int:
        """Events with stored per-event digests (≤ ``count``)."""
        return len(self.event_digests) // 8

    def event_digest(self, index: int) -> bytes:
        """The 8-byte cumulative digest after recorded event ``index``."""
        return bytes(self.event_digests[index * 8 : index * 8 + 8])

    def digest(self) -> bytes:
        return self._hash.digest()

    def hexdigest(self) -> str:
        """Hex digest over all events executed so far."""
        return self._hash.hexdigest()


class _TraceCollectorProtocol:
    """What :func:`set_trace_collector` expects (duck-typed).

    ``keep_events``/``event_limit`` configure traces of newly constructed
    simulators; ``register(sim)`` is called once per simulator at
    construction, in construction order.
    """

    keep_events: bool
    event_limit: int | None

    def register(self, sim: "Simulator") -> None:  # pragma: no cover - protocol
        raise NotImplementedError


_active_collector: _TraceCollectorProtocol | None = None


def set_trace_collector(
    collector: _TraceCollectorProtocol | None,
) -> _TraceCollectorProtocol | None:
    """Install a process-wide trace collector; returns the previous one.

    While a collector is installed, every newly constructed
    :class:`Simulator` gets an :class:`EventTrace` (configured from the
    collector) and is registered with it.  The determinism sanitizer uses
    this to observe simulators an experiment builds internally.
    """
    global _active_collector
    previous = _active_collector
    _active_collector = collector
    return previous


#: Process-wide observability context (see :mod:`repro.obs`).  Duck-typed
#: for the same reason the trace collector is: netsim must not import obs.
_active_obs = None


def set_observability(obs):
    """Install a process-wide observability context; returns the previous one.

    While installed, every newly constructed :class:`Simulator` calls
    ``obs.register(sim)`` so the context can follow the virtual clock.
    The context is observe-only: installing one never changes the event
    sequence.
    """
    global _active_obs
    previous = _active_obs
    _active_obs = obs
    return previous


@dataclasses.dataclass(slots=True)
class TieEvent:
    """One not-yet-executed event of a tie group, as hooks see it."""

    time: float
    priority: int
    seq: int
    handle: "EventHandle"
    callback: Callable[..., Any]
    args: tuple
    #: ``(filename, lineno)`` of the scheduling call site, captured only
    #: while a tie hook is installed (provenance for race reports).
    site: tuple[str, int] | None = None


class _TieHookProtocol:
    """What :func:`set_tie_hook` expects (duck-typed).

    ``register(sim)`` is called once per simulator at construction, in
    construction order.  ``on_group(sim, events)`` receives every tie
    group (same virtual time, same priority lane) just before it executes
    and may return a reordered list of the same events (or None to keep
    FIFO order).  ``before_event``/``after_event`` bracket each executed
    callback; ``end_group(sim)`` fires once the group has drained.
    Cancellations performed *inside* a tie group are still honoured: a
    cancelled member is skipped at execution time, not at grouping time.
    """

    def register(self, sim: "Simulator") -> None:  # pragma: no cover - protocol
        raise NotImplementedError

    def on_group(self, sim, events):  # pragma: no cover - protocol
        return None

    def before_event(self, sim, event) -> None:  # pragma: no cover - protocol
        pass

    def after_event(self, sim, event) -> None:  # pragma: no cover - protocol
        pass

    def end_group(self, sim) -> None:  # pragma: no cover - protocol
        pass


_active_tie_hook: _TieHookProtocol | None = None


def set_tie_hook(hook: _TieHookProtocol | None) -> _TieHookProtocol | None:
    """Install a process-wide tie-group hook; returns the previous one.

    While a hook is installed, every newly constructed :class:`Simulator`
    takes its next event from tie groups (batches of same-time,
    same-priority events) and reports them to the hook — the race
    detector's interference sanitizer and schedule-permutation explorer
    plug in here.  With no hook (the default) the next event comes straight
    off the heap, in the same order unless a hook reorders a group.
    """
    global _active_tie_hook
    previous = _active_tie_hook
    _active_tie_hook = hook
    return previous


def _caller_site() -> tuple[str, int] | None:
    """(filename, lineno) of the nearest frame outside this module."""
    frame = sys._getframe(1)
    while frame is not None and frame.f_globals.get("__name__") == __name__:
        frame = frame.f_back
    if frame is None:
        return None
    return (frame.f_code.co_filename, frame.f_lineno)


class EventHandle:
    """A cancellable reference to a scheduled event."""

    __slots__ = ("time", "cancelled", "_sim")

    def __init__(self, time: float, sim: "Simulator | None" = None):
        self.time = time
        self.cancelled = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the event's callback from running (idempotent)."""
        if self.cancelled:
            return
        self.cancelled = True
        sim = self._sim
        if sim is not None:
            sim._note_cancelled()


class Simulator:
    """A seeded, deterministic discrete-event simulator.

    Events scheduled for the same instant fire in scheduling order, which
    keeps runs reproducible regardless of callback content.

    With ``trace_hash=True`` (or while a sanitizer trace collector is
    installed) every executed event is folded into ``self.trace``, an
    :class:`EventTrace` whose digest fingerprints the entire run.
    """

    def __init__(self, seed: int = 0, *, trace_hash: bool = False):
        self.now: float = 0.0
        self.seed = seed
        self.rng = random.Random(seed)
        self._child_rngs: dict[str, random.Random] = {}
        # heap entries: (time, priority, seq, handle, callback, args)
        self._queue: list[
            tuple[float, int, int, EventHandle, Callable[..., Any], tuple]
        ] = []
        self._sequence = itertools.count()
        self._events_processed = 0
        #: Cancelled entries still sitting in the heap (see _note_cancelled).
        self._tombstones = 0
        #: The open tie group's not-yet-run TieEvents (empty with no hook).
        self._tie_buffer: list[TieEvent] = []
        #: seq -> scheduling call site, populated only while a tie hook is
        #: installed (the frame walk is not free).
        self._sites: dict[int, tuple[str, int] | None] = {}
        self._tie_hook = _active_tie_hook
        if self._tie_hook is not None:
            self._tie_hook.register(self)
        #: Observability context attached to this simulator (see repro.obs).
        #: None in the common case; instrumentation sites gate on it.
        self.obs = None
        if _active_obs is not None:
            _active_obs.register(self)
        collector = _active_collector
        self.trace: EventTrace | None
        if collector is not None:
            self.trace = EventTrace(
                keep_events=collector.keep_events, event_limit=collector.event_limit
            )
            collector.register(self)
        elif trace_hash:
            self.trace = EventTrace()
        else:
            self.trace = None

    # -- randomness --------------------------------------------------------

    def child_rng(self, name: str) -> random.Random:
        """A named RNG stream derived deterministically from the seed.

        Orthogonal subsystems (fault injection, background noise, …) must
        not draw from ``self.rng`` directly: an extra draw would shift every
        subsequent value the core simulation sees, so merely *enabling* such
        a subsystem would perturb the whole event trace.  A child stream is
        seeded from ``(seed, name)`` only — same seed and name, same stream,
        regardless of what any other stream has consumed.  Repeated calls
        with the same name return the same (stateful) instance.
        """
        rng = self._child_rngs.get(name)
        if rng is None:
            material = f"{self.seed}\x00{name}".encode("utf-8", "backslashreplace")
            derived = hashlib.blake2b(material, digest_size=8).digest()
            rng = random.Random(int.from_bytes(derived, "big"))
            self._child_rngs[name] = rng
        return rng

    # -- scheduling --------------------------------------------------------

    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = DEFAULT_PRIORITY,
    ) -> EventHandle:
        """Run ``callback(*args)`` after ``delay`` seconds of virtual time.

        ``priority`` selects the lane within an instant; pass
        :data:`BOUNDARY_PRIORITY` for state transitions that must apply
        before same-instant default-lane traffic.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule {delay} seconds in the past")
        return self.schedule_at(self.now + delay, callback, *args, priority=priority)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = DEFAULT_PRIORITY,
    ) -> EventHandle:
        """Run ``callback(*args)`` at absolute virtual time ``time``."""
        if not self.now <= time < inf:
            if not isfinite(time):
                raise ValueError(f"cannot schedule at non-finite time {time!r}")
            raise ValueError(f"cannot schedule at {time} before now={self.now}")
        handle = EventHandle(time, self)
        seq = next(self._sequence)
        if self._tie_hook is not None:
            self._sites[seq] = _caller_site()
        heapq.heappush(self._queue, (time, priority, seq, handle, callback, args))
        return handle

    # -- execution ---------------------------------------------------------

    def step(self, until: float = inf) -> bool:
        """Process the next live event unless it is later than ``until``
        (then, or with none left, return False and leave it queued).  The one
        place that advances ``now``, counts, records the trace and calls the
        callback; :meth:`run` is this in a loop."""
        hook = self._tie_hook
        event = None
        if hook is None:
            # re-read every call: _compact() rebinds the heap
            queue = self._queue
            while True:
                if not queue:
                    return False
                time, _priority, sequence, handle, callback, args = queue[0]
                if not handle.cancelled:
                    break
                heapq.heappop(queue)
                handle._sim = None
                self._tombstones -= 1
            if time > until:
                return False
            heapq.heappop(queue)
            handle._sim = None
        else:
            next_time = self._next_event_time()
            if next_time is None or next_time > until:
                return False
            event = self._next_tie_event()
            time, sequence, callback, args = event.time, event.seq, event.callback, event.args
        self.now = time
        self._events_processed += 1
        if self.trace is not None:
            self.trace.record(time, sequence, callback, args)
        if hook is not None:
            hook.before_event(self, event)
        callback(*args)
        if hook is not None:
            hook.after_event(self, event)
            self._tie_group_drained()
        return True

    def _next_tie_event(self) -> TieEvent | None:
        """Where a hooked simulator gets its next event: the current tie
        group's next live member, else the first of the next group — all
        live events at the next ``(time, priority)``, popped together and
        offered to ``on_group``.  None when no live event is left."""
        if self._tie_buffer and not self._tie_group_drained():
            return self._tie_buffer.pop(0)
        queue = self._queue
        group: list[TieEvent] = []
        while queue and (
            not group
            or (queue[0][0] == group[0].time and queue[0][1] == group[0].priority)
        ):
            time, priority, seq, handle, callback, args = heapq.heappop(queue)
            site = self._sites.pop(seq, None)
            handle._sim = None
            if handle.cancelled:
                self._tombstones -= 1
            else:
                group.append(TieEvent(time, priority, seq, handle, callback, args, site))
        if not group:
            return None
        reordered = self._tie_hook.on_group(self, group)
        if reordered is not None:
            group = list(reordered)
        self._tie_buffer = group
        return group.pop(0)

    def _tie_group_drained(self) -> bool:
        """Drop cancelled members from the head of the tie buffer — whether
        an earlier member of the group cancelled them or a caller between
        steps, they are honoured exactly as if still in the heap.  True,
        after telling the hook the group has ended, once nothing is left."""
        buffer = self._tie_buffer
        while buffer and buffer[0].handle.cancelled:
            buffer.pop(0)
        if buffer:
            return False
        self._tie_hook.end_group(self)
        return True

    # -- heap hygiene ------------------------------------------------------

    def _note_cancelled(self) -> None:
        """Called by :meth:`EventHandle.cancel` for handles still in the
        heap; compacts once tombstones dominate the live entries."""
        self._tombstones += 1
        if (
            self._tombstones > _COMPACT_MIN_TOMBSTONES
            and self._tombstones * 2 > len(self._queue)
        ):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without cancelled tombstones."""
        live = []
        for entry in self._queue:
            handle = entry[3]
            if handle.cancelled:
                handle._sim = None
                self._sites.pop(entry[2], None)
            else:
                live.append(entry)
        heapq.heapify(live)
        self._queue = live
        self._tombstones = 0

    def _next_event_time(self) -> float | None:
        """Time of the next live event, discarding cancelled tombstones."""
        if self._tie_buffer and not self._tie_group_drained():
            return self._tie_buffer[0].time
        while self._queue and self._queue[0][3].cancelled:
            _, _, seq, handle, _, _ = heapq.heappop(self._queue)
            handle._sim = None
            self._tombstones -= 1
            self._sites.pop(seq, None)
        return self._queue[0][0] if self._queue else None

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """:meth:`step` in a loop: until the queue drains, the next event is
        later than ``until``, or ``max_events`` have fired.

        With ``until`` set, virtual time is advanced to exactly ``until``
        even if the queue drains early, so rate calculations stay honest —
        unless ``max_events`` ran out with a due event still pending.
        """
        limit = inf if until is None else until
        budget = itertools.repeat(None) if max_events is None else range(max_events)
        for _ in budget:
            if not self.step(limit):
                break
        else:
            # max_events ran out: leave ``now`` alone if an event is still due
            next_time = self._next_event_time()
            if next_time is not None and next_time <= limit:
                return
        if until is not None and self.now < until:
            self.now = until

    @property
    def events_processed(self) -> int:
        """Total events executed so far (diagnostic)."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Events currently queued, including cancelled tombstones."""
        return len(self._queue) + len(self._tie_buffer)

    @property
    def live_pending_events(self) -> int:
        """Queued events that will actually fire (tombstones excluded).

        Prefer this over :attr:`pending_events` in reports:
        the raw heap length overstates queue depth by however many
        cancelled retransmission timers are still awaiting compaction.
        """
        live = len(self._queue) - self._tombstones
        for event in self._tie_buffer:
            if not event.handle.cancelled:
                live += 1
        return live
