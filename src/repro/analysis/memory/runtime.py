"""Runtime high-water-mark monitor: the dynamic witness behind M006.

The static pass proves every declared collection has an enforced bound;
this monitor checks the claim against a live run.  It imports the
package, collects every class with a ``__state_bounds__`` entry, patches
those classes' ``__setattr__`` just enough to learn which *instances*
hold a declared collection, and — from the :func:`repro.netsim.set_tie_hook`
seam — samples ``len()`` of each declared collection once per tie group.
If any observed size ever exceeds its declared bound, the run fails with
an **M006** finding naming the table, the high-water mark, and the bound.

Observation discipline (the W002 contract): the monitor never schedules,
never draws randomness, and mutates nothing it watches — ``len()`` on a
dict/list/set is a pure read.  When the monitor is off nothing is
installed at all, so ``--sanitize`` traces are bit-identical by
construction.

Entry points: :func:`run_bounds_monitored`, or
``python -m repro <cmd> --memory``.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable

from ...netsim.simulator import Simulator, TieEvent, _TieHookProtocol
from ..declarations import StateBound, iter_declared_classes
from ..findings import Finding
from ..modes import run_hooked

#: (class, source path, attr -> StateBound) for one declared class.
BoundedClass = tuple[type, str, dict[str, StateBound]]


def discover_bounded_classes(package: str = "repro") -> list[BoundedClass]:
    """Every class under ``package`` with ``__state_bounds__`` attrs."""
    return [
        (cls, getattr(module, "__file__", None) or "<runtime>", dict(attrs))
        for module, cls, attrs in iter_declared_classes(package, "__state_bounds__")
    ]


class HighWaterMonitor(_TieHookProtocol):
    """Tie hook sampling declared collections' sizes against their bounds."""

    def __init__(self, declared: list[BoundedClass]):
        self._declared = declared
        self._attrs_by_class: dict[type, dict[str, StateBound]] = {
            cls: attrs for cls, _path, attrs in declared
        }
        self._paths_by_class: dict[type, str] = {
            cls: path for cls, path, _attrs in declared
        }
        self._patched: list[tuple[type, Any]] = []
        #: instances seen assigning a declared attr (identity-keyed; the
        #: ref list keeps ids stable for the run)
        self._instances: dict[int, Any] = {}
        self.samples = 0
        #: (class qualname, attr) -> max observed len()
        self.high_water: dict[tuple[str, str], int] = {}

    # -- instrumentation ---------------------------------------------------

    def install(self) -> None:
        for cls, _path, attrs in self._declared:
            self._patch_class(cls, frozenset(attrs))

    def uninstall(self) -> None:
        self.sample()  # final state, after the last tie group
        while self._patched:
            cls, orig_set = self._patched.pop()
            cls.__setattr__ = orig_set  # type: ignore[method-assign]

    def _patch_class(self, cls: type, tracked: frozenset[str]) -> None:
        orig_set = cls.__setattr__
        mon = self

        def __setattr__(obj, name, value):
            if name in tracked:
                mon._instances.setdefault(id(obj), obj)
            orig_set(obj, name, value)

        cls.__setattr__ = __setattr__  # type: ignore[method-assign]
        self._patched.append((cls, orig_set))

    # -- sampling ----------------------------------------------------------

    def sample(self) -> None:
        """Record the current size of every watched collection."""
        self.samples += 1
        for obj in self._instances.values():
            # subclass instances resolve to the declared base via the MRO,
            # and are recorded under the *declared* class so findings()
            # and the report match them against the right bound
            owner = None
            attrs = None
            for base in type(obj).__mro__:
                attrs = self._attrs_by_class.get(base)
                if attrs is not None:
                    owner = base
                    break
            if attrs is None or owner is None:
                continue
            for attr in attrs:
                value = getattr(obj, attr, None)
                try:
                    size = len(value)  # type: ignore[arg-type]
                except TypeError:
                    continue
                key = (owner.__qualname__, attr)
                if size > self.high_water.get(key, -1):
                    self.high_water[key] = size

    # -- tie hook ----------------------------------------------------------

    def register(self, sim: Simulator) -> None:  # pragma: no cover - trivial
        return None

    def on_group(self, sim: Simulator, events: list[TieEvent]):
        self.sample()
        return None

    # -- verdict -----------------------------------------------------------

    def findings(self) -> list[Finding]:
        out: list[Finding] = []
        for cls, path, attrs in self._declared:
            for attr, bound in sorted(attrs.items()):
                seen = self.high_water.get((cls.__qualname__, attr))
                if seen is not None and seen > bound.bound:
                    out.append(
                        Finding(
                            path=path,
                            line=1,
                            col=0,
                            rule="M006",
                            message=(
                                f"high-water mark {seen} exceeds the "
                                f"declared bound on {bound.describe()} — "
                                f"the static claim has a dynamic "
                                f"counterexample"
                            ),
                        )
                    )
        return sorted(out, key=Finding.sort_key)


@dataclasses.dataclass(slots=True)
class MemoryReport:
    """Outcome of a bounds-monitored run."""

    findings: list[Finding]
    samples: int
    classes_watched: int
    instances_watched: int
    #: (class qualname, attr) -> (high-water, declared bound)
    high_water: dict[tuple[str, str], tuple[int, int]]

    @property
    def ok(self) -> bool:
        return not self.findings

    def summary(self) -> str:
        head = (
            f"memory: {'OK' if self.ok else 'BOUND EXCEEDED'} — "
            f"{self.samples} sample(s), {self.classes_watched} class(es) "
            f"watched, {self.instances_watched} instance(s) seen"
        )
        parts = [head]
        for (cls_name, attr), (seen, bound) in sorted(self.high_water.items()):
            parts.append(f"  {cls_name}.{attr}: high-water {seen} / bound {bound}")
        parts.extend(f.format_text() for f in self.findings)
        return "\n".join(parts)


def run_bounds_monitored(
    experiment: Callable[[], Any],
    *,
    quiet: bool = True,
    declared: list[BoundedClass] | None = None,
) -> MemoryReport:
    """Execute ``experiment`` once under the high-water-mark monitor.

    ``quiet`` redirects the experiment's stdout so the memory verdict is
    the only output (mirrors the race monitor).  ``declared`` overrides
    package discovery — tests monitor toy classes this way.
    """
    if declared is None:
        declared = discover_bounded_classes()
    monitor = HighWaterMonitor(declared)
    run_hooked(experiment, monitor, quiet=quiet, monitor=monitor)

    bounds_by_key: dict[tuple[str, str], int] = {}
    for cls, _path, attrs in declared:
        for attr, bound in attrs.items():
            bounds_by_key[(cls.__qualname__, attr)] = bound.bound
    high_water = {
        key: (seen, bounds_by_key.get(key, 0))
        for key, seen in monitor.high_water.items()
    }
    return MemoryReport(
        findings=monitor.findings(),
        samples=monitor.samples,
        classes_watched=len(declared),
        instances_watched=len(monitor._instances),
        high_water=high_water,
    )
