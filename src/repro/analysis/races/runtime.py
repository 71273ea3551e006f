"""Dynamic interference sanitizer: tie-group footprints at runtime.

The static pass (R001/R002) sees attribute *names*; this monitor sees
*instances*.  It installs the :func:`repro.netsim.set_tie_hook` hook, works
out the tie groups from the events it brackets — consecutive events of one
simulator at equal ``(time, priority)``, all queued before the first of them
ran — and for every group records each handler's read/write footprint over
the state declared in ``__shared_state__``, then reports

* **R003** when two handlers in one group wrote an overlapping cell, and
* **R004** when one read a cell another wrote,

with both events' provenance: handler label, scheduling call site, and
argument digests (node/packet identity).  A *cell* is
``(owner instance, attribute)`` for scalars and
``(owner instance, attribute, key)`` for dict entries, so two guards
sweeping their own tables never alias.

Observation discipline (the W002 contract): the monitor must not change
the event sequence.  It patches the declared classes'
``__getattribute__``/``__setattr__`` in place (restored on uninstall),
records only while a tie group with a second member queued is executing,
never schedules, and never draws randomness.  Dict-valued guarded
attributes are lazily replaced with a :class:`TrackedDict` — a ``dict``
subclass with identical semantics and a ``trace_digest`` pinned to
``"dict"`` so trace hashes are unaffected.

Entry points: :func:`run_monitored`, or ``python -m repro <cmd> --races``.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from typing import Any, Callable

from ...netsim.simulator import (
    Simulator,
    TieEvent,
    _describe_callback,
    _describe_value,
    set_tie_hook,
)
from ..declarations import SharedStateDecl, iter_declared_classes
from ..findings import Finding
from ..modes import quiet_stdout

#: Wildcard key: the whole-container footprint (iteration, clear, len).
WILDCARD = "*"

Cell = tuple  # (owner_label, attr, key) — key None for scalars


def discover_declared_classes(
    package: str = "repro",
) -> list[tuple[type, SharedStateDecl]]:
    """Every class under ``package`` with a ``__shared_state__`` entry."""
    return [
        (cls, decl)
        for _module, cls, decl in iter_declared_classes(package, "__shared_state__")
    ]


class _TrackedOps:
    """Footprint instrumentation shared by the tracked containers.

    Mixed in ahead of ``dict`` / ``OrderedDict`` so ``super()`` resolves
    to the real container: semantics are untouched, every op just reports
    its key-granular footprint first.  (The data slots live on the
    concrete classes — a non-empty ``__slots__`` here would conflict with
    the container base's instance layout.)
    """

    __slots__ = ()

    def __init__(self, data: dict, mon: "InterferenceMonitor", owner: str, attr: str):
        # fields first: OrderedDict.__init__ populates via __setitem__,
        # which already consults the instrumentation (mon._busy is held by
        # the lazy swap, so construction leaves no footprint)
        self._mon = mon
        self._owner = owner
        self._attr = attr
        super().__init__(data)

    def trace_digest(self) -> str:
        # pinned so EventTrace descriptions match an untracked dict's
        return "dict"

    # -- reads -------------------------------------------------------------

    def __getitem__(self, key):
        self._mon.note_cell(self._owner, self._attr, key, write=False)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self._mon.note_cell(self._owner, self._attr, key, write=False)
        return super().get(key, default)

    def __contains__(self, key):
        self._mon.note_cell(self._owner, self._attr, key, write=False)
        return super().__contains__(key)

    def __iter__(self):
        self._mon.note_cell(self._owner, self._attr, WILDCARD, write=False)
        return super().__iter__()

    def __len__(self):
        self._mon.note_cell(self._owner, self._attr, WILDCARD, write=False)
        return super().__len__()

    def keys(self):
        self._mon.note_cell(self._owner, self._attr, WILDCARD, write=False)
        return super().keys()

    def values(self):
        self._mon.note_cell(self._owner, self._attr, WILDCARD, write=False)
        return super().values()

    def items(self):
        self._mon.note_cell(self._owner, self._attr, WILDCARD, write=False)
        return super().items()

    # -- writes ------------------------------------------------------------

    def __setitem__(self, key, value):
        self._mon.note_cell(self._owner, self._attr, key, write=True)
        super().__setitem__(key, value)

    def __delitem__(self, key):
        self._mon.note_cell(self._owner, self._attr, key, write=True)
        super().__delitem__(key)

    def pop(self, key, *default):
        self._mon.note_cell(self._owner, self._attr, key, write=False)
        self._mon.note_cell(self._owner, self._attr, key, write=True)
        return super().pop(key, *default)

    def popitem(self, *args, **kwargs):
        self._mon.note_cell(self._owner, self._attr, WILDCARD, write=True)
        return super().popitem(*args, **kwargs)

    def clear(self):
        self._mon.note_cell(self._owner, self._attr, WILDCARD, write=True)
        super().clear()

    def update(self, *args, **kwargs):
        other = args[0] if args else ()
        keys = other.keys() if isinstance(other, dict) else None
        if keys is None:
            self._mon.note_cell(self._owner, self._attr, WILDCARD, write=True)
        else:
            for key in keys:
                self._mon.note_cell(self._owner, self._attr, key, write=True)
            for key in kwargs:
                self._mon.note_cell(self._owner, self._attr, key, write=True)
        super().update(*args, **kwargs)

    def setdefault(self, key, default=None):
        self._mon.note_cell(self._owner, self._attr, key, write=False)
        if key not in dict.keys(self):
            self._mon.note_cell(self._owner, self._attr, key, write=True)
        return super().setdefault(key, default)


class TrackedDict(_TrackedOps, dict):
    """A ``dict`` that reports key-granular footprints to the monitor."""

    __slots__ = ("_mon", "_owner", "_attr")


class TrackedOrderedDict(_TrackedOps, OrderedDict):
    """An ``OrderedDict`` proxy: ordering ops are whole-table writes.

    ``move_to_end`` mutates the order an LRU eviction will follow, so it
    counts as a wildcard write even though no key's value changes.
    """

    __slots__ = ("_mon", "_owner", "_attr")

    def move_to_end(self, key, last=True):
        self._mon.note_cell(self._owner, self._attr, WILDCARD, write=True)
        super().move_to_end(key, last=last)


#: Exact container type -> its tracked proxy (subclasses other than these
#: are left unwrapped and fall back to scalar-cell tracking).
_TRACKED_TYPES: dict[type, type] = {
    dict: TrackedDict,
    OrderedDict: TrackedOrderedDict,
}


def _overlap(a: set[Cell], b: set[Cell]) -> set[Cell]:
    """Conflicting cells between two footprints, wildcard-aware."""
    out: set[Cell] = set()
    index_b: dict[tuple, set] = {}
    for owner, attr, key in b:
        index_b.setdefault((owner, attr), set()).add(key)
    for owner, attr, key in a:
        keys_b = index_b.get((owner, attr))
        if not keys_b:
            continue
        if key == WILDCARD or WILDCARD in keys_b:
            out.add((owner, attr, WILDCARD))
        elif key in keys_b:
            out.add((owner, attr, key))
    return out


def _cell_text(cell: Cell) -> str:
    owner, attr, key = cell
    if key is None:
        return f"{owner}.{attr}"
    if key == WILDCARD:
        return f"{owner}.{attr}[*]"
    return f"{owner}.{attr}[{_describe_value(key)}]"


def _event_text(event: TieEvent) -> str:
    args = ",".join(_describe_value(a) for a in event.args)
    label = f"{_describe_callback(event.callback)}({args})"
    if event.site is not None:
        label += f" scheduled at {event.site[0]}:{event.site[1]}"
    return label


class InterferenceMonitor:
    """Tie hook + attribute instrumentation producing R003/R004 findings."""

    def __init__(self, declared: list[tuple[type, SharedStateDecl]]):
        self._declared = declared
        self._patched: list[tuple[type, Any, Any]] = []
        self._owner_labels: dict[int, str] = {}
        self._owner_refs: list[Any] = []  # keep ids stable for the run
        self._owner_counts: dict[str, int] = {}
        self._busy = False
        self._armed = False
        self._current: TieEvent | None = None
        self._reads: set[Cell] = set()
        self._writes: set[Cell] = set()
        self._records: list[tuple[TieEvent, frozenset, frozenset]] = []
        #: The running tie group: (simulator, time, priority), the newest
        #: seq queued when its first member ran, and its members so far.
        self._group: tuple | None = None
        self._group_last_seq = -1
        self._group_size = 0
        self._seen: set[tuple] = set()
        self._allow_cache: dict[str, dict[int, set[str]]] = {}
        self.findings: list[Finding] = []
        self.groups_observed = 0
        self.multi_groups = 0

    # -- instrumentation ---------------------------------------------------

    def install(self) -> None:
        for cls, decl in self._declared:
            self._patch_class(cls, decl.guarded)

    def uninstall(self) -> None:
        while self._patched:
            cls, orig_get, orig_set = self._patched.pop()
            cls.__getattribute__ = orig_get  # type: ignore[method-assign]
            cls.__setattr__ = orig_set  # type: ignore[method-assign]

    def _patch_class(self, cls: type, tracked: frozenset[str]) -> None:
        orig_get = cls.__getattribute__
        orig_set = cls.__setattr__
        mon = self

        def __getattribute__(obj, name):
            value = orig_get(obj, name)
            if name in tracked and mon._current is not None and not mon._busy:
                return mon._note_read(obj, name, value)
            return value

        def __setattr__(obj, name, value):
            if name in tracked and mon._current is not None and not mon._busy:
                mon._note_write(obj, name, value)
            orig_set(obj, name, value)

        cls.__getattribute__ = __getattribute__  # type: ignore[method-assign]
        cls.__setattr__ = __setattr__  # type: ignore[method-assign]
        self._patched.append((cls, orig_get, orig_set))

    def _owner_label(self, obj: Any) -> str:
        key = id(obj)
        label = self._owner_labels.get(key)
        if label is None:
            cls_name = type(obj).__qualname__
            name = getattr(obj, "name", None)
            if isinstance(name, str):
                label = f"{cls_name}<{name}>"
            else:
                count = self._owner_counts.get(cls_name, 0)
                self._owner_counts[cls_name] = count + 1
                label = f"{cls_name}#{count}"
            self._owner_labels[key] = label
            self._owner_refs.append(obj)
        return label

    def _note_read(self, obj: Any, name: str, value: Any) -> Any:
        self._busy = True
        try:
            if isinstance(value, _TrackedOps):
                return value
            owner = self._owner_label(obj)
            proxy = _TRACKED_TYPES.get(type(value))
            if proxy is not None:
                # lazily swap the container for a key-granular proxy; the
                # mere attribute read is not a footprint — the dict ops are
                tracked = proxy(value, self, owner, name)
                setattr(obj, name, tracked)
                return tracked
            self._reads.add((owner, name, None))
            return value
        finally:
            self._busy = False

    def _note_write(self, obj: Any, name: str, value: Any) -> None:
        self._busy = True
        try:
            owner = self._owner_label(obj)
            if isinstance(value, dict):
                # rebinding the whole table clobbers every key
                self._writes.add((owner, name, WILDCARD))
            else:
                self._writes.add((owner, name, None))
        finally:
            self._busy = False

    def note_cell(self, owner: str, attr: str, key: Any, *, write: bool) -> None:
        """Key-granular footprint entry, called by the tracked containers."""
        if self._current is None or self._busy:
            return
        cell = (owner, attr, key if isinstance(key, (str, int, float, bytes, tuple, frozenset, type(None))) else repr(key))
        (self._writes if write else self._reads).add(cell)

    # -- tie hook ----------------------------------------------------------

    def before_event(self, sim: Simulator, event: TieEvent) -> None:
        key = (sim, event.time, event.priority)
        if key != self._group or event.seq > self._group_last_seq:
            # a new group: anything this event (or a later member) schedules
            # into the same instant and lane runs after it, in a group of its own
            self.close_group()
            self._group = key
            self._group_last_seq = sim._last_seq
            self._group_size = 1
            self.groups_observed += 1
            queue = sim._queue
            self._armed = bool(queue) and queue[0][0] == event.time and queue[0][1] == event.priority
        else:
            self._group_size += 1
            if self._group_size == 2:
                self.multi_groups += 1
        if self._armed:
            self._current = event
            self._reads = set()
            self._writes = set()

    def after_event(self, sim: Simulator, event: TieEvent) -> None:
        if self._current is None:
            return
        self._records.append(
            (event, frozenset(self._reads), frozenset(self._writes))
        )
        self._current = None

    def close_group(self) -> None:
        """Judge the running tie group's footprints and end it.  A group
        ends when an event outside it starts, or when the run ends."""
        records, self._records = self._records, []
        self._group = None
        self._armed = False
        for i, (event_i, reads_i, writes_i) in enumerate(records):
            for event_j, reads_j, writes_j in records[i + 1 :]:
                ww = _overlap(set(writes_i), set(writes_j))
                if ww:
                    self._report("R003", event_i, event_j, ww)
                rw = (
                    _overlap(set(reads_i), set(writes_j))
                    | _overlap(set(writes_i), set(reads_j))
                ) - ww
                if rw:
                    self._report("R004", event_i, event_j, rw)

    # -- findings ----------------------------------------------------------

    def _site_allows(self, site: tuple[str, int] | None) -> set[str]:
        """Rule ids an inline ``repro: allow[...]`` marker grants ``site``."""
        if site is None:
            return set()
        allowed = self._allow_cache.get(site[0])
        if allowed is None:
            from ..engine import suppressed_rules

            try:
                with open(site[0], encoding="utf-8", errors="replace") as fh:
                    allowed = suppressed_rules(fh.read())
            except OSError:
                allowed = {}
            self._allow_cache[site[0]] = allowed
        return allowed.get(site[1], set())

    def _report(
        self, rule: str, event_a: TieEvent, event_b: TieEvent, cells: set[Cell]
    ) -> None:
        """Record a finding, once per (rule, handler pair, cells).

        A schedule site carrying an inline allow marker for ``rule``
        documents a serialization contract (e.g. same-node deliveries
        drain one queue in send order): the conflict is not reported —
        its order is defined, not an accident of heap insertion.
        """
        self._busy = True
        try:
            site = event_b.site or event_a.site
            if site is not None and rule in self._site_allows(site):
                return
            label_a = _describe_callback(event_a.callback)
            label_b = _describe_callback(event_b.callback)
            cell_keys = tuple(sorted(f"{c[0]}.{c[1]}" for c in cells))
            dedup = (rule, tuple(sorted((label_a, label_b))), cell_keys)
            if dedup in self._seen:
                return
            self._seen.add(dedup)
            kind = "write/write" if rule == "R003" else "read/write"
            cell_text = ", ".join(sorted(_cell_text(c) for c in cells))
            self.findings.append(
                Finding(
                    path=site[0] if site else "<runtime>",
                    line=site[1] if site else 0,
                    col=0,
                    rule=rule,
                    message=(
                        f"{kind} conflict at t={event_a.time!r} between "
                        f"{_event_text(event_a)} and {_event_text(event_b)} "
                        f"on {cell_text}"
                    ),
                )
            )
        finally:
            self._busy = False


@dataclasses.dataclass(slots=True)
class RaceReport:
    """Outcome of a monitored run."""

    findings: list[Finding]
    groups_observed: int
    multi_groups: int
    classes_watched: int

    @property
    def ok(self) -> bool:
        return not self.findings

    def summary(self) -> str:
        head = (
            f"races: {'OK' if self.ok else 'CONFLICTS DETECTED'} — "
            f"{self.groups_observed} tie group(s), {self.multi_groups} with "
            f">1 event, {self.classes_watched} class(es) watched"
        )
        parts = [head]
        parts.extend(f.format_text() for f in self.findings)
        return "\n".join(parts)


def run_monitored(
    experiment: Callable[[], Any],
    *,
    quiet: bool = True,
    declared: list[tuple[type, SharedStateDecl]] | None = None,
) -> RaceReport:
    """Execute ``experiment`` once under the interference monitor.

    ``quiet`` redirects the experiment's stdout so the race verdict is
    the only output (mirrors the determinism sanitizer).  ``declared``
    overrides package discovery — tests monitor toy classes this way.
    """
    if declared is None:
        declared = discover_declared_classes()
    monitor = InterferenceMonitor(declared)
    previous = set_tie_hook(monitor)
    monitor.install()
    try:
        with quiet_stdout(quiet):
            experiment()
        monitor.close_group()
    finally:
        monitor.uninstall()
        set_tie_hook(previous)
    return RaceReport(
        findings=sorted(monitor.findings, key=Finding.sort_key),
        groups_observed=monitor.groups_observed,
        multi_groups=monitor.multi_groups,
        classes_watched=len(declared),
    )
