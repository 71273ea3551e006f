"""Scriptable, seeded fault plans for the discrete-event testbed.

A :class:`FaultPlan` is a timed list of :class:`FaultAction` objects —
link blackouts and flaps, bursty Gilbert–Elliott loss, packet duplication
/ reordering / corruption, guard crash-and-restart with key rotation, and
route failover to a secondary server.  ``plan.schedule(sim)`` arms every
action on the simulator clock; timed actions with a ``duration`` revert
themselves when it elapses.

Determinism: every stochastic fault (loss models, duplication, …) draws
from the ``"faults"`` child stream of the simulator RNG
(:meth:`Simulator.child_rng`), never from ``Simulator.rng`` itself.  Two
consequences worth the satellite note in DESIGN.md: (1) adding or removing
fault randomness cannot perturb the core event sequence, so A/B runs stay
comparable; (2) the ``repro.analysis`` D002 lint stays clean — no module
here imports ``random``; the only stream is derived from the seed.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Callable

from ..netsim import BOUNDARY_PRIORITY, GilbertElliottLoss, Link, Node, Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    import random
    from ipaddress import IPv4Network

    from ..guard.pipeline import RemoteDnsGuard

#: Name of the Simulator child stream all fault randomness flows through.
FAULT_STREAM = "faults"

#: Shared-state declaration for the race analyser
#: (``repro.analysis.races``).  Fault actions run in the boundary
#: priority lane (state transitions apply "at the start of the instant",
#: before any same-time packet delivery), so their cells never share a
#: tie group with default-lane handlers.
__shared_state__ = {
    "BurstyLoss": {"guarded": ["model", "_saved"]},
    "GuardCrash": {"guarded": ["_state"]},
    "FaultPlan": {"guarded": ["entries", "scheduled"]},
}


@dataclasses.dataclass(slots=True)
class FaultContext:
    """What a running action may touch: the clock and the fault RNG."""

    sim: Simulator
    rng: "random.Random"


class FaultAction:
    """One fault: ``start`` fires at its scheduled time; when ``duration``
    is set, ``stop`` fires ``duration`` seconds later to revert it."""

    #: seconds until the action reverts itself (None = permanent)
    duration: float | None = None

    def start(self, ctx: FaultContext) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def stop(self, ctx: FaultContext) -> None:
        """Revert the fault (no-op by default)."""

    def schedule(self, at: float, ctx: FaultContext) -> None:
        # Boundary lane: a fault coinciding with a packet delivery applies
        # before the delivery, by contract rather than insertion order.
        # Same-instant fault actions compose in *plan* order (FaultPlan
        # sorts entries and the tie-break is FIFO), and a crash meeting a
        # guard sweep converges either way — crash() cancels the sweeper,
        # and cancellation is honoured inside a tie group (pinned by
        # tests/faults/test_fault_race.py).
        ctx.sim.schedule_at(at, self.start, ctx, priority=BOUNDARY_PRIORITY)  # repro: allow[R001,R003,R004] same-instant actions compose in plan order by contract
        if self.duration is not None:
            ctx.sim.schedule_at(at + self.duration, self.stop, ctx, priority=BOUNDARY_PRIORITY)  # repro: allow[R001,R003,R004] revert composes in plan order; crash/sweep converge

    @property
    def name(self) -> str:
        """Stable label (also keeps event-trace descriptions id-free)."""
        return type(self).__name__


class LinkDown(FaultAction):
    """Blackout: the link eats every packet, both directions."""

    def __init__(self, link: Link, *, duration: float | None = None):
        self.link = link
        self.duration = duration

    def start(self, ctx: FaultContext) -> None:
        self.link.up = False

    def stop(self, ctx: FaultContext) -> None:
        self.link.up = True


class LinkFlap(FaultAction):
    """Repeated down/up cycles: ``count`` blackouts of ``down_for`` seconds
    separated by ``up_for`` seconds of service."""

    def __init__(self, link: Link, *, down_for: float, up_for: float, count: int):
        if count < 1:
            raise ValueError("count must be >= 1")
        if down_for <= 0 or up_for < 0:
            raise ValueError("down_for must be positive and up_for >= 0")
        self.link = link
        self.down_for = down_for
        self.up_for = up_for
        self.count = count

    def schedule(self, at: float, ctx: FaultContext) -> None:
        period = self.down_for + self.up_for
        for i in range(self.count):
            ctx.sim.schedule_at(
                at + i * period, self.start, ctx, priority=BOUNDARY_PRIORITY
            )
            ctx.sim.schedule_at(
                at + i * period + self.down_for,
                self.stop,
                ctx,
                priority=BOUNDARY_PRIORITY,
            )

    def start(self, ctx: FaultContext) -> None:
        self.link.up = False

    def stop(self, ctx: FaultContext) -> None:
        self.link.up = True


class BurstyLoss(FaultAction):
    """Install a Gilbert–Elliott two-state loss model on the link.

    Replaces the link's (uniform) loss behaviour for ``duration`` seconds;
    the model's RNG is the plan's fault stream.
    """

    def __init__(
        self,
        link: Link,
        *,
        duration: float | None = None,
        p_good_to_bad: float = 0.02,
        p_bad_to_good: float = 0.25,
        loss_good: float = 0.0,
        loss_bad: float = 1.0,
    ):
        self.link = link
        self.duration = duration
        self.p_good_to_bad = p_good_to_bad
        self.p_bad_to_good = p_bad_to_good
        self.loss_good = loss_good
        self.loss_bad = loss_bad
        self.model: GilbertElliottLoss | None = None
        self._saved: object | None = None

    def start(self, ctx: FaultContext) -> None:
        self._saved = self.link.loss_model
        self.model = GilbertElliottLoss(
            ctx.rng,
            p_good_to_bad=self.p_good_to_bad,
            p_bad_to_good=self.p_bad_to_good,
            loss_good=self.loss_good,
            loss_bad=self.loss_bad,
        )
        self.link.loss_model = self.model

    def stop(self, ctx: FaultContext) -> None:
        self.link.loss_model = self._saved  # type: ignore[assignment]


class _LinkKnob(FaultAction):
    """Base for the per-packet fault knobs sharing install/revert shape."""

    def __init__(self, link: Link, probability: float, *, duration: float | None = None):
        if not 0.0 <= probability <= 1.0:
            raise ValueError("probability must be within [0, 1]")
        self.link = link
        self.probability = probability
        self.duration = duration

    def start(self, ctx: FaultContext) -> None:
        self.link.fault_rng = ctx.rng
        self._set(self.probability)

    def stop(self, ctx: FaultContext) -> None:
        self._set(0.0)

    def _set(self, probability: float) -> None:  # pragma: no cover - interface
        raise NotImplementedError


class Duplicate(_LinkKnob):
    """Deliver a fraction of packets twice (routing loops, L2 retransmits)."""

    def _set(self, probability: float) -> None:
        self.link.duplicate_prob = probability


class Reorder(_LinkKnob):
    """Hold a fraction of packets back so later traffic overtakes them."""

    def __init__(
        self,
        link: Link,
        probability: float,
        *,
        extra_delay: float = 0.0,
        duration: float | None = None,
    ):
        super().__init__(link, probability, duration=duration)
        self.extra_delay = extra_delay

    def start(self, ctx: FaultContext) -> None:
        self.link.reorder_delay = self.extra_delay
        super().start(ctx)

    def _set(self, probability: float) -> None:
        self.link.reorder_prob = probability


class Corrupt(_LinkKnob):
    """Flip bits in a fraction of packets; receivers' checksums drop them."""

    def _set(self, probability: float) -> None:
        self.link.corrupt_prob = probability


class GuardCrash(FaultAction):
    """Crash the remote guard, then restart it after ``downtime`` seconds.

    The persisted cookie-key blob crosses the restart; with
    ``rotate_key=True`` the restart also installs a fresh key, relying on
    the generation bit so pre-crash cookies keep verifying.
    """

    def __init__(
        self, guard: "RemoteDnsGuard", *, downtime: float, rotate_key: bool = True
    ):
        if downtime <= 0:
            raise ValueError("downtime must be positive")
        self.guard = guard
        self.duration = downtime
        self.rotate_key = rotate_key
        self._state: bytes | None = None

    def start(self, ctx: FaultContext) -> None:
        self._state = self.guard.crash()

    def stop(self, ctx: FaultContext) -> None:
        self.guard.restart(self._state, rotate_key=self.rotate_key)


class RouteFailover(FaultAction):
    """Repoint ``node``'s route for ``subnet`` at ``link`` — the anycast /
    VIP failover a resolver sees when a dead primary's address moves to
    the secondary server."""

    def __init__(self, node: Node, subnet: IPv4Network | str, link: Link):
        self.node = node
        self.subnet = subnet
        self.link = link

    def start(self, ctx: FaultContext) -> None:
        self.node.replace_route(self.subnet, self.link)


class Callback(FaultAction):
    """Escape hatch: run an arbitrary ``fn(ctx)`` at the scheduled time."""

    def __init__(self, fn: Callable[[FaultContext], None], *, label: str = "callback"):
        self.fn = fn
        self.label = label

    def start(self, ctx: FaultContext) -> None:
        self.fn(ctx)

    @property
    def name(self) -> str:
        return f"Callback<{self.label}>"


class FaultPlan:
    """A deterministic script of timed faults against one simulation."""

    def __init__(self) -> None:
        self.entries: list[tuple[float, FaultAction]] = []
        self.scheduled = False

    def add(self, at: float, action: FaultAction) -> FaultAction:
        """Fire ``action`` at absolute virtual time ``at``; returns it so
        callers can keep a handle (e.g. to read a loss model's counters)."""
        if at < 0:
            raise ValueError(f"cannot schedule a fault at negative time {at}")
        self.entries.append((at, action))
        return action

    def extend(self, other: "FaultPlan") -> "FaultPlan":
        """Append every entry of ``other`` (composing scenario building
        blocks); returns self."""
        self.entries.extend(other.entries)
        return self

    def schedule(self, sim: Simulator) -> FaultContext:
        """Arm every action on ``sim``; idempotence is the caller's duty
        (scheduling twice injects every fault twice)."""
        if self.scheduled:
            raise RuntimeError("FaultPlan already scheduled")
        self.scheduled = True
        ctx = FaultContext(sim=sim, rng=sim.child_rng(FAULT_STREAM))
        obs = sim.obs
        for at, action in sorted(self.entries, key=lambda entry: entry[0]):
            action.schedule(at, ctx)
            if obs is not None:
                # planned timeline: point spans at the *scheduled* times, so a
                # run report shows the fault script without any extra events.
                obs.counter("faults.planned", kind=action.name).inc()
                obs.spans.point("fault.start", at=at, kind=action.name)
                if action.duration is not None:
                    obs.spans.point(
                        "fault.stop", at=at + action.duration, kind=action.name
                    )
        return ctx

    def __len__(self) -> int:
        return len(self.entries)
