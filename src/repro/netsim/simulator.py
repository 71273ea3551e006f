"""Deterministic discrete-event simulation core.

The :class:`Simulator` owns virtual time and a binary-heap event queue.
Everything in the testbed — link propagation, CPU service completion,
retransmission timers, load generators — is an event scheduled here, so a
run with the same seed is bit-for-bit reproducible.

An event is its heap entry, the list ``[time, priority, seq, callback, args]``
ordered by its first three fields (``seq`` is unique, so callbacks are never
compared); only :meth:`Simulator.schedule` wraps one in an
:class:`EventHandle`, the one object that can cancel an event.

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
is FIFO on scheduling order.  Events at equal ``(time, priority)`` that are
queued together form a *tie group*; the race detector
(:mod:`repro.analysis.races`) watches tie groups through the hook installed
by :func:`set_tie_hook`, which brackets each event without reordering any.
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

from .address import format_address

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


def _describe_address(value: Any) -> str:
    """An argument marked by ``address_args``: an address int, or a list of them, dotted."""
    if isinstance(value, list):
        return "[" + ",".join(map(_describe_address, value)) + "]"
    return format_address(value) if type(value) is int else _describe_value(value)


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
        marked = getattr(callback, "address_args", ())
        arg_text = ",".join(
            _describe_address(a) if i in marked else _describe_value(a)
            for i, a in enumerate(args)
        )
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
    """One executing event, as the tie hook sees it."""

    time: float
    priority: int
    seq: int
    callback: Callable[..., Any]
    args: tuple
    #: ``(filename, lineno)`` of the scheduling call site, captured only
    #: while a tie hook is installed (provenance for race reports).
    site: tuple[str, int] | None = None


class _TieHookProtocol:
    """What :func:`set_tie_hook` expects (duck-typed):
    ``before_event(sim, event)`` and ``after_event(sim, event)`` bracket
    each executed callback, ``event`` being its :class:`TieEvent`."""

    def before_event(self, sim, event) -> None:  # pragma: no cover - protocol
        pass

    def after_event(self, sim, event) -> None:  # pragma: no cover - protocol
        pass


_active_tie_hook: _TieHookProtocol | None = None


def set_tie_hook(hook: _TieHookProtocol | None) -> _TieHookProtocol | None:
    """Install a process-wide tie hook; returns the previous one.

    Every :class:`Simulator` constructed while a hook is installed records
    each scheduling call site and the newest sequence number it handed out
    (``_last_seq``), and brackets each callback it executes with the hook's
    ``before_event``/``after_event``.  The events run in the same order as
    with no hook; working out tie groups from them is the hook's business
    (the race detector's interference monitor plugs in here).
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
    """A cancellable timer, as :meth:`Simulator.schedule` returns it: it wraps
    the event's heap entry, and :meth:`cancel` empties the entry's callback
    and args in place, as firing does, so neither a tombstone nor a handle
    kept past its event holds anything alive."""

    __slots__ = ("_entry", "_sim")

    def __init__(self, entry: list, sim: "Simulator"):
        self._entry = entry
        self._sim = sim

    @property
    def time(self) -> float:
        """The virtual time the event is (or was) due at."""
        return self._entry[0]

    def cancel(self) -> None:
        """Prevent the event's callback from running (idempotent) and let go
        of the callback and its arguments."""
        entry = self._entry
        if entry[3] is None:
            return
        entry[3] = None
        entry[4] = ()
        sim = self._sim
        sim._tombstones += 1
        if sim._tombstones > _COMPACT_MIN_TOMBSTONES and sim._tombstones * 2 > len(sim._queue):
            sim._compact()


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
        # heap entries: [time, priority, seq, callback, args]; callback None = tombstone
        self._queue: list[list] = []
        self._sequence = itertools.count()
        self._events_processed = 0
        #: Cancelled entries still sitting in the heap (see EventHandle.cancel).
        self._tombstones = 0
        #: seq -> scheduling call site, and the newest seq handed out; both
        #: kept only while a tie hook is installed (the frame walk is not free).
        self._sites: dict[int, tuple[str, int] | None] = {}
        self._last_seq = -1
        self._tie_hook = _active_tie_hook
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
        """Run ``callback(*args)`` after ``delay`` seconds of virtual time;
        returns an :class:`EventHandle` that can cancel it.

        ``priority`` selects the lane within an instant; pass
        :data:`BOUNDARY_PRIORITY` for state transitions that must apply
        before same-instant default-lane traffic.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule {delay} seconds in the past")
        if priority == DEFAULT_PRIORITY:  # a keyword passed beside *args costs a dict
            return EventHandle(self.schedule_at(self.now + delay, callback, *args), self)
        entry = self.schedule_at(self.now + delay, callback, *args, priority=priority)
        return EventHandle(entry, self)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = DEFAULT_PRIORITY,
    ) -> list:
        """Run ``callback(*args)`` at virtual time ``time``; returns the bare heap entry."""
        if not self.now <= time < inf:
            if not isfinite(time):
                raise ValueError(f"cannot schedule at non-finite time {time!r}")
            raise ValueError(f"cannot schedule at {time} before now={self.now}")
        seq = next(self._sequence)
        if self._tie_hook is not None:
            self._sites[seq] = _caller_site()
            self._last_seq = seq
        entry = [time, priority, seq, callback, args]
        heapq.heappush(self._queue, entry)
        return entry

    # -- execution ---------------------------------------------------------

    def step(self, until: float = inf) -> bool:
        """Process the next live event unless it is later than ``until``
        (then, or with none left, return False and leave it queued).  The one
        place that advances ``now``, counts, records the trace and calls the
        callback, bracketed by the tie hook's ``before_event``/``after_event``
        when one is installed; :meth:`run` is this in a loop."""
        hook = self._tie_hook
        # re-read every call: _compact() rebinds the heap
        queue = self._queue
        while True:
            if not queue:
                return False
            entry = queue[0]
            if entry[3] is not None:
                break
            heapq.heappop(queue)
            self._tombstones -= 1
            if hook is not None:
                self._sites.pop(entry[2], None)
        time, priority, sequence, callback, args = entry
        if time > until:
            return False
        heapq.heappop(queue)
        # a fired event owns nothing, and cancelling it is a no-op
        entry[3] = None
        entry[4] = ()
        self.now = time
        self._events_processed += 1
        if self.trace is not None:
            self.trace.record(time, sequence, callback, args)
        if hook is None:
            callback(*args)
        else:
            event = TieEvent(
                time, priority, sequence, callback, args, self._sites.pop(sequence, None)
            )
            hook.before_event(self, event)
            callback(*args)
            hook.after_event(self, event)
        return True

    # -- heap hygiene ------------------------------------------------------

    def _compact(self) -> None:
        """Rebuild the heap without cancelled tombstones."""
        live = []
        append = live.append
        sites = self._sites
        for entry in self._queue:
            if entry[3] is not None:
                append(entry)
            elif sites:  # only a tie hook records scheduling sites
                sites.pop(entry[2], None)
        heapq.heapify(live)
        self._queue = live
        self._tombstones = 0

    def _next_event_time(self) -> float | None:
        """Time of the next live event, discarding cancelled tombstones."""
        queue = self._queue
        while queue and queue[0][3] is None:
            self._sites.pop(heapq.heappop(queue)[2], None)
            self._tombstones -= 1
        return queue[0][0] if queue else None

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
        return len(self._queue)

    @property
    def live_pending_events(self) -> int:
        """Queued events that will actually fire (tombstones excluded).

        Prefer this over :attr:`pending_events` in reports:
        the raw heap length overstates queue depth by however many
        cancelled retransmission timers are still awaiting compaction.
        """
        return len(self._queue) - self._tombstones
