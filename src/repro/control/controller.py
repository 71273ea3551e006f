"""The closed-loop guard controller: sample, decide, actuate, fail safe.

``GuardController`` runs a deterministic sweep on a fixed cadence in the
``BOUNDARY_PRIORITY`` lane — the same lane as fault onsets and the
guard's own soft-state sweeper, so control actions apply *before* any
packet delivery sharing the same instant.  Each sweep samples the
:class:`~repro.control.signals.SignalReader`, updates hot/cool streaks
with hysteresis, and (subject to a cooldown and a bounded actions-per-
window budget) moves the global escalation level up or down, pushing it
through every registered actuator.

Robustness contract:

* **watchdog** — any exception escaping a sweep reverts every actuator
  to its recorded safe base configuration and permanently disables the
  controller for the run (``failed=True``); the guard keeps running on
  the static config.
* **crash composition** — a :class:`~repro.faults.GuardCrash` wipes the
  guard's soft state; the next sweep notices the ``crashes`` counter
  moved, reverts to the safe config (the restarted guard must not come
  back escalated) and rebases the signal window.
* **determinism** — all controller randomness comes from
  ``child_rng("control")``; with ``enabled=False`` the controller
  schedules nothing and draws nothing, so ``--sanitize`` traces are
  bit-identical to a run without it.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING

from ..netsim import BOUNDARY_PRIORITY
from .actuators import Actuator, default_actuators
from .signals import SignalReader, SignalSnapshot

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..guard.pipeline import RemoteDnsGuard

#: Shared-state declaration for the race analyser: everything the
#: boundary-lane sweep rewrites, plus monotone action counters.
__shared_state__ = {
    "GuardController": {
        "guarded": [
            "level",
            "failed",
            "failure",
            "last_snapshot",
            "_hot_streak",
            "_cool_streak",
            "_last_action",
            "_action_times",
            "_handle",
            "_crashes_seen",
            "actions",
        ],
        "commutative": [
            "sweeps",
            "escalations",
            "deescalations",
            "reverts",
            "rotations",
            "actions_suppressed",
        ],
    },
}

#: State-bound declaration for the memory analyser
#: (``repro.analysis.memory``).  Both collections are internally driven
#: (the controller budgets its own actions); the budget window prunes
#: ``_action_times`` on every budget check, and the audit log displaces
#: oldest-first at its cap so a year-long deployment cannot grow it.
__state_bounds__ = {
    "GuardController": {
        "_action_times": {"bound": 16, "evicted_by": "sweep", "keyed_by": "internal"},
        "actions": {"bound": 4096, "evicted_by": "cap", "keyed_by": "internal"},
    },
}

#: Hard cap on the retained action audit log.
ACTION_LOG_CAP = 4096


@dataclasses.dataclass(slots=True)
class ControlConfig:
    """Tuning knobs for the control loop (all times in virtual seconds)."""

    #: sweep period; also the signal-window length
    cadence: float = 0.05
    #: CPU utilisation at/above which a sweep counts as *hot*
    escalate_util: float = 0.9
    #: CPU utilisation at/below which a sweep may count as *cool*
    deescalate_util: float = 0.6
    #: consecutive hot sweeps before escalating (debounce)
    escalate_after: int = 2
    #: consecutive cool sweeps before de-escalating (hysteresis)
    deescalate_after: int = 6
    #: minimum time between level changes
    cooldown: float = 0.2
    #: highest escalation level
    max_level: int = 3
    #: actuation budget: at most this many actions per ``action_window``
    max_actions_per_window: int = 8
    action_window: float = 1.0


class GuardController:
    """Closed-loop graceful degradation for one :class:`RemoteDnsGuard`."""

    def __init__(
        self,
        guard: "RemoteDnsGuard",
        *,
        config: ControlConfig | None = None,
        actuators: list[Actuator] | None = None,
        enabled: bool = True,
    ):
        self.guard = guard
        self.sim = guard.node.sim
        self.config = config if config is not None else ControlConfig()
        self.enabled = enabled
        # a disabled controller must leave zero footprint: no child RNG
        # stream, no actuators touched, nothing scheduled
        if enabled:
            self.rng = self.sim.child_rng("control")
            self.actuators = (
                actuators
                if actuators is not None
                else default_actuators(guard, self.rng)
            )
        else:
            self.rng = None
            self.actuators = actuators if actuators is not None else []
        self.reader = SignalReader(guard)
        self.level = 0
        self.failed = False
        self.failure: str | None = None
        self.last_snapshot: SignalSnapshot | None = None
        self._hot_streak = 0
        self._cool_streak = 0
        self._last_action = float("-inf")
        self._action_times: list[float] = []
        self._handle = None
        self._crashes_seen = guard.crashes
        #: chronological ``(time, action, level)`` log
        self.actions: list[tuple[float, str, int]] = []
        self.sweeps = 0
        self.escalations = 0
        self.deescalations = 0
        self.reverts = 0
        self.rotations = 0
        self.actions_suppressed = 0
        if self.sim.obs is not None:
            self.sim.obs.add_snapshot(f"control.{guard.node.name}", self.summary)

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "GuardController":
        """Begin sweeping; a no-op when disabled or already started."""
        if not self.enabled or self.failed or self._handle is not None:
            return self
        # Boundary lane, like fault onsets and the guard sweeper: control
        # actions apply before same-instant packet deliveries.  Overlap
        # with those writers is serialized by lane contract.
        self._handle = self.sim.schedule(  # repro: allow[R003,R004] boundary-lane control sweep serializes with fault actions and guard sweeps by contract
            self.config.cadence, self._sweep, priority=BOUNDARY_PRIORITY
        )
        return self

    def stop(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    # -- sweep -------------------------------------------------------------

    def _sweep(self) -> None:
        self._handle = None
        self.sweeps += 1
        try:
            self._tick()
        except Exception as exc:  # watchdog: fail safe, never take the run down
            self._watchdog_trip(exc)
            return
        self._handle = self.sim.schedule(  # repro: allow[R003,R004,P006] fixed-cadence control sweep is the sampling clock; boundary lane serializes with other state writers
            self.config.cadence, self._sweep, priority=BOUNDARY_PRIORITY
        )

    def _tick(self) -> None:
        guard = self.guard
        now = self.sim.now
        if guard.crashes != self._crashes_seen:
            # the guard crashed (and possibly restarted) since last sweep:
            # its soft state is gone, so an escalated posture no longer
            # matches reality — revert to the safe static config and start
            # observing from scratch
            self._crashes_seen = guard.crashes
            self.revert_to_safe("guard-crash")
            self.reader.rebase()
            return
        if guard.down:
            # dead inline hardware: nothing to observe, nothing to actuate
            self.reader.rebase()
            return
        snapshot = self.reader.sample()
        self.last_snapshot = snapshot
        cfg = self.config
        overloaded = (
            snapshot.queue_drop_rate > 0.0 or snapshot.work_dropped_rate > 0.0
        )
        hot = snapshot.cpu_utilization >= cfg.escalate_util or overloaded
        cool = snapshot.cpu_utilization <= cfg.deescalate_util and not overloaded
        if hot:
            self._hot_streak += 1
            self._cool_streak = 0
        elif cool:
            self._cool_streak += 1
            self._hot_streak = 0
        else:
            self._hot_streak = 0
            self._cool_streak = 0
        if hot and self._hot_streak >= cfg.escalate_after and self.level < cfg.max_level:
            self._change_level(self.level + 1, now, "escalate")
        elif cool and self._cool_streak >= cfg.deescalate_after and self.level > 0:
            self._change_level(self.level - 1, now, "deescalate")
        # time-based actuators (key rotation) run inside the same budget
        for actuator in self.actuators:
            if self._budget_left(now) and actuator.tick(now):
                self.rotations += 1
                self._note_action(now, "tick:" + actuator.name)

    def _change_level(self, level: int, now: float, kind: str) -> None:
        cfg = self.config
        if now - self._last_action < cfg.cooldown:
            return
        if not self._budget_left(now):
            self.actions_suppressed += 1
            return
        self.level = level
        for actuator in self.actuators:
            actuator.apply(level)
        self._last_action = now
        self._hot_streak = 0
        self._cool_streak = 0
        if kind == "escalate":
            self.escalations += 1
        else:
            self.deescalations += 1
        self._note_action(now, kind)

    def _budget_left(self, now: float) -> bool:
        window_start = now - self.config.action_window
        self._action_times = [t for t in self._action_times if t > window_start]  # repro: allow[P005] once per control sweep, and the list holds at most max_actions_per_window stamps
        return len(self._action_times) < self.config.max_actions_per_window

    def _note_action(self, now: float, kind: str) -> None:
        self._action_times.append(now)
        self._log_action((now, kind, self.level))

    def _log_action(self, entry: tuple[float, str, int]) -> None:
        """Append to the audit log, displacing the oldest entry at the cap."""
        self.actions.append(entry)
        if len(self.actions) > ACTION_LOG_CAP:
            del self.actions[0]

    # -- fail-safe ---------------------------------------------------------

    def revert_to_safe(self, reason: str) -> None:
        """Drop to level 0 and restore every actuator's base config."""
        for actuator in self.actuators:
            actuator.revert()
        self.level = 0
        self._hot_streak = 0
        self._cool_streak = 0
        self.reverts += 1
        self._log_action((self.sim.now, "revert:" + reason, 0))

    def _watchdog_trip(self, exc: Exception) -> None:
        """A sweep raised: revert to the safe static config and stop."""
        self.failed = True
        self.failure = type(exc).__name__ + ": " + str(exc)
        try:
            self.revert_to_safe("controller-crash")
        except Exception as revert_exc:
            # even a broken revert must not take the run down; record it
            # so the failure is visible in the summary, not swallowed
            self.failure += " / revert failed: " + type(revert_exc).__name__
        self.stop()

    # -- reporting ---------------------------------------------------------

    def summary(self) -> dict[str, int | float]:
        """Counters snapshot (also exported via obs, when installed)."""
        return {
            "enabled": int(self.enabled),
            "level": self.level,
            "sweeps": self.sweeps,
            "escalations": self.escalations,
            "deescalations": self.deescalations,
            "reverts": self.reverts,
            "rotations": self.rotations,
            "actions_suppressed": self.actions_suppressed,
            "failed": int(self.failed),
        }
