"""Schedule exploration: permute conflicting tie groups, compare traces.

The interference monitor (R003/R004) reports conflicts in *one* executed
order.  Exploration answers the converse question — does any legal
reordering of simultaneous events change the run?  It re-executes a
scenario N times, each time applying a seeded permutation to the tie
groups the base run found conflicts in (a DPOR-lite: independent groups
commute by construction, so permuting them is pure cost), and compares
*canonical* traces across runs.

The canonical trace differs from :class:`repro.netsim.EventTrace` in
exactly one way: within a tie group, event descriptions are sorted and
sequence numbers dropped, so two runs that differ only by a commuting
permutation hash identically.  Any digest mismatch therefore means the
permutation *observably changed the simulation* — the definition of a
simultaneity race — and the report localises it to the first divergent
tie group, reusing the sanitizer's :class:`~repro.analysis.sanitizer.Divergence`.

Only groups with *live* recorded conflicts are permuted — the DPOR
insight, not an economy.  Handlers with disjoint footprints still share
the simulator RNG stream, and the order they draw in is part of program
order: shuffling two independent deliveries swaps their jitter draws and
the traces diverge for stochastic reasons that say nothing about state
interference.  Likewise a group whose only conflicts sit under an inline
``repro: allow[...]`` serialization contract has a *defined* order —
permuting it would test an ordering the model forbids.  When the base
run records no live conflicts (the healthy state once R003/R004 are
clean) there is nothing to permute and the base trace stands.

Entry points: :func:`explore`, or ``python -m repro <cmd> --explore N``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random  # repro: allow[D002] - permutation rngs are seed-derived
from typing import Any, Callable

from ...netsim.simulator import (
    Simulator,
    TieEvent,
    _describe_callback,
    _describe_value,
    _TieHookProtocol,
)
from ..modes import run_hooked
from ..sanitizer import Divergence
from .runtime import InterferenceMonitor, discover_declared_classes


def _event_desc(event: TieEvent) -> str:
    """Order-free event description: everything but the sequence number."""
    args = ",".join(_describe_value(a) for a in event.args)
    return (
        f"t={event.time!r} p={event.priority} "
        f"{_describe_callback(event.callback)}({args})"
    )


class CanonicalRecorder(_TieHookProtocol):
    """Tie hook recording a per-group canonical digest per simulator."""

    def __init__(self, *, keep_descriptions: bool = False):
        self.keep_descriptions = keep_descriptions
        self.digests: list[list[bytes]] = []  # per sim, per group
        self.descriptions: list[list[str]] = []
        self.multi_groups: set[tuple[int, int]] = set()
        self._sim_indices: dict[int, int] = {}

    def register(self, sim: Simulator) -> None:
        self._sim_indices[id(sim)] = len(self.digests)
        self.digests.append([])
        self.descriptions.append([])

    def on_group(self, sim: Simulator, events: list[TieEvent]):
        sim_index = self._sim_indices.get(id(sim))
        if sim_index is None:  # pragma: no cover - unregistered sim
            return None
        descs = sorted(_event_desc(e) for e in events)
        joined = "\n".join(descs)
        digest = hashlib.blake2b(
            joined.encode("utf-8", "backslashreplace"), digest_size=8
        ).digest()
        group_index = len(self.digests[sim_index])
        self.digests[sim_index].append(digest)
        if self.keep_descriptions:
            self.descriptions[sim_index].append(joined)
        if len(events) > 1:
            self.multi_groups.add((sim_index, group_index))
        return None


class _BaseHook(CanonicalRecorder):
    """Base-run hook: canonical recording + the interference monitor."""

    def __init__(self, monitor: InterferenceMonitor):
        super().__init__(keep_descriptions=True)
        self.monitor = monitor

    def register(self, sim: Simulator) -> None:
        super().register(sim)
        self.monitor.register(sim)

    def on_group(self, sim, events):
        super().on_group(sim, events)
        return self.monitor.on_group(sim, events)

    def before_event(self, sim, event) -> None:
        self.monitor.before_event(sim, event)

    def after_event(self, sim, event) -> None:
        self.monitor.after_event(sim, event)

    def end_group(self, sim) -> None:
        self.monitor.end_group(sim)


class _PermuteHook(CanonicalRecorder):
    """Permutation-run hook: shuffle targeted tie groups, seeded per group.

    The rng for group ``(s, g)`` of permutation ``p`` is derived from
    ``(seed, p, s, g)`` alone, so a divergence reproduces exactly from its
    run index.
    """

    def __init__(self, targets: set[tuple[int, int]], seed: int, perm_index: int):
        super().__init__()
        self.targets = targets
        self.seed = seed
        self.perm_index = perm_index
        self.permuted_groups = 0

    def on_group(self, sim, events):
        sim_index = self._sim_indices.get(id(sim))
        group_index = len(self.digests[sim_index]) if sim_index is not None else -1
        super().on_group(sim, events)
        if len(events) < 2 or (sim_index, group_index) not in self.targets:
            return None
        material = f"{self.seed}|{self.perm_index}|{sim_index}|{group_index}"
        derived = hashlib.blake2b(material.encode(), digest_size=8).digest()
        rng = random.Random(int.from_bytes(derived, "big"))
        reordered = list(events)
        rng.shuffle(reordered)
        self.permuted_groups += 1
        return reordered


@dataclasses.dataclass(slots=True)
class ExploreReport:
    """Outcome of a schedule-exploration run."""

    permutations: int
    target_groups: int
    groups_observed: int
    multi_groups: int
    permuted_total: int
    base_digest: str
    divergences: list[tuple[int, Divergence]]  # (permutation index, where)
    monitor_findings: int

    @property
    def invariant(self) -> bool:
        return not self.divergences

    ok = invariant

    def summary(self) -> str:
        if self.invariant:
            if not self.target_groups:
                return (
                    f"explore: INVARIANT — no conflicting tie group(s) to "
                    f"permute ({self.groups_observed} group(s), "
                    f"{self.multi_groups} with >1 event), canonical trace "
                    f"{self.base_digest}"
                )
            return (
                f"explore: INVARIANT — {self.permutations} permutation(s) over "
                f"{self.target_groups} conflicting tie group(s) "
                f"({self.permuted_total} shuffles applied), canonical trace "
                f"{self.base_digest}"
            )
        parts = [
            f"explore: ORDER-DEPENDENT — {len(self.divergences)} of "
            f"{self.permutations} permutation(s) diverged "
            f"(targets: {self.target_groups} conflicting tie group(s))"
        ]
        for perm_index, divergence in self.divergences:
            parts.append(f"permutation #{perm_index}:")
            parts.append(str(divergence))
        return "\n".join(parts)


def _combined_digest(digests: list[list[bytes]]) -> str:
    combined = hashlib.blake2b(digest_size=16)
    for per_sim in digests:
        for digest in per_sim:
            combined.update(digest)
        combined.update(b"\xff")
    return combined.hexdigest()


def _first_divergence(
    base: CanonicalRecorder, run: CanonicalRecorder
) -> Divergence | None:
    """First tie group whose canonical digest differs from the base run."""
    for sim_index in range(min(len(base.digests), len(run.digests))):
        base_groups = base.digests[sim_index]
        run_groups = run.digests[sim_index]
        for group_index in range(min(len(base_groups), len(run_groups))):
            if base_groups[group_index] != run_groups[group_index]:
                base_desc = (
                    base.descriptions[sim_index][group_index]
                    if base.descriptions[sim_index]
                    else None
                )
                return Divergence(
                    sim_index,
                    group_index,
                    f"tie group #{group_index}: {base_desc}" if base_desc else None,
                    f"tie group #{group_index}: canonical digest "
                    f"{run_groups[group_index].hex()}",
                )
        if len(base_groups) != len(run_groups):
            shared = min(len(base_groups), len(run_groups))
            return Divergence(sim_index, shared, None, None)
    if len(base.digests) != len(run.digests):
        return Divergence(min(len(base.digests), len(run.digests)), 0, None, None)
    return None


def explore(
    experiment: Callable[[], Any],
    *,
    permutations: int = 25,
    seed: int = 0,
    quiet: bool = True,
    declared: list | None = None,
) -> ExploreReport:
    """Base run + N permutation runs; compare canonical traces.

    ``declared`` overrides the package-wide class discovery for the base
    run's interference monitor (tests pass toy declarations).
    """
    monitor = InterferenceMonitor(
        discover_declared_classes() if declared is None else declared
    )
    base = _BaseHook(monitor)
    run_hooked(experiment, base, quiet=quiet, monitor=monitor)

    targets = set(monitor.conflict_groups)

    divergences: list[tuple[int, Divergence]] = []
    permuted_total = 0
    # No live conflicts means nothing to permute: independent handlers
    # still share the RNG stream, so shuffling them anyway would only
    # measure draw-order noise (see module docstring).
    if targets:
        for perm_index in range(permutations):
            hook = _PermuteHook(targets, seed, perm_index)
            run_hooked(experiment, hook, quiet=quiet)
            permuted_total += hook.permuted_groups
            divergence = _first_divergence(base, hook)
            if divergence is not None:
                divergences.append((perm_index, divergence))

    return ExploreReport(
        permutations=permutations,
        target_groups=len(targets),
        groups_observed=sum(len(d) for d in base.digests),
        multi_groups=len(base.multi_groups),
        permuted_total=permuted_total,
        base_digest=_combined_digest(base.digests),
        divergences=divergences,
        monitor_findings=len(monitor.findings),
    )
