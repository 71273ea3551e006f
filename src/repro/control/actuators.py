"""The sanctioned actuator seam: how the controller touches the guard.

Each actuator owns one degradation axis and knows how to map a global
escalation *level* (0 = safe static base, 3 = maximum shedding) onto the
guard's mutating entry points (``set_policy``, ``reconfigure``,
``set_admission``, ``rotate_cookie_key``) — the only places the control
plane is allowed to write, which analysis rule W002 enforces for the
observability layer.  Every actuator records its base configuration at
construction so ``revert()`` restores the exact pre-controller state;
that is what the watchdog and the crash-composition path rely on.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..guard.core import random_key
from ..guard.pipeline import AdmissionControl

if TYPE_CHECKING:  # pragma: no cover - typing only
    import random

    from ..guard.pipeline import RemoteDnsGuard

#: Shared-state declaration for the race analyser: actuator level state is
#: rewritten from the controller's boundary-lane sweep.
__shared_state__ = {
    "SchemeActuator": {"guarded": ["level"]},
    "RateLimitActuator": {"guarded": ["level"]},
    "AdmissionActuator": {"guarded": ["level", "_control"]},
    "KeyRotationActuator": {
        "guarded": ["level", "_last_rotation"],
        "commutative": ["rotations"],
    },
}


class Actuator:
    """One degradation axis.  Subclasses override :meth:`apply`."""

    name = "actuator"

    def __init__(self) -> None:
        self.level = 0

    def apply(self, level: int) -> bool:
        """Move to ``level``; returns True when anything changed."""
        if level == self.level:
            return False
        self.level = level
        self._enact(level)
        return True

    def revert(self) -> None:
        """Restore the exact pre-controller configuration."""
        self.level = 0
        self._enact(0)

    def tick(self, now: float) -> bool:
        """Periodic hook for time-based actuators; default no-op."""
        return False

    def _enact(self, level: int) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class SchemeActuator(Actuator):
    """Escalate the challenge scheme for unverified plain queries.

    Level 0-1 keep the configured base policy (the cheap DNS-cookie
    challenge); level 2 falls back to TCP (a harder, costlier proof of
    address); level 3 stops challenging entirely — modified-DNS posture:
    only cookie-bearing traffic is served, plain queries are dropped at
    one verification's cost.
    """

    name = "scheme"

    def __init__(self, guard: "RemoteDnsGuard"):
        super().__init__()
        self.guard = guard
        self._base_policy = guard._policy

    def _enact(self, level: int) -> None:
        if level >= 3:
            self.guard.set_policy("drop")
        elif level == 2:
            self.guard.set_policy("tcp")
        else:
            self.guard.set_policy(self._base_policy)


class RateLimitActuator(Actuator):
    """Hot-tune Rate-Limiter1/2 thresholds against the saved base rates.

    RL1 (unverified responses) tightens aggressively with the level: it
    is the reflector-amplification valve and costs legitimate clients
    nothing once they hold a cookie.  RL2 (verified requests) tightens
    mildly and never below half the base so a verified LRS keeps working.
    """

    name = "ratelimit"

    #: multiplier per level, applied to the base (rate, burst)
    RL1_FACTORS = (1.0, 0.5, 0.25, 0.1)
    RL2_FACTORS = (1.0, 1.0, 0.5, 0.5)

    def __init__(self, guard: "RemoteDnsGuard"):
        super().__init__()
        self.guard = guard
        self._base_rl1 = (guard.rl1.per_source_rate, guard.rl1.per_source_burst)
        self._base_rl2 = (guard.rl2.per_host_rate, guard.rl2.per_host_burst)

    def _enact(self, level: int) -> None:
        idx = max(0, min(level, len(self.RL1_FACTORS) - 1))
        f1 = self.RL1_FACTORS[idx]
        f2 = self.RL2_FACTORS[idx]
        self.guard.rl1.reconfigure(self._base_rl1[0] * f1, self._base_rl1[1] * f1)
        self.guard.rl2.reconfigure(self._base_rl2[0] * f2, self._base_rl2[1] * f2)


class AdmissionActuator(Actuator):
    """Engage priority-aware ingress shedding in place of blind FIFO drops.

    Level 0 removes admission control entirely; level 1-2 shed unverified
    sources once the CPU backlog passes half the queue limit; level 3
    sheds earlier (a quarter) so verified traffic keeps more headroom.
    """

    name = "admission"

    def __init__(self, guard: "RemoteDnsGuard", *, verified_ttl: float = 5.0):
        super().__init__()
        self.guard = guard
        self.verified_ttl = verified_ttl
        # installed *disengaged* from the start so the guard's verified-
        # source cache warms up during calm operation; engaging later with
        # an empty cache would shed the very clients whose verifications
        # could never happen (the gate runs before verification)
        self._control = AdmissionControl(
            engaged=False, verified_ttl=verified_ttl
        )
        guard.set_admission(self._control)

    def _enact(self, level: int) -> None:
        if level <= 0:
            self._control.engaged = False
            return
        self._control.engaged = True
        self._control.shed_backlog_fraction = 0.25 if level >= 3 else 0.5


class KeyRotationActuator(Actuator):
    """Rotate the cookie key on a cadence while escalated.

    Rotation invalidates every cookie an attacker may have harvested, but
    the generation-parity scheme tolerates exactly **one** outstanding
    generation — a second rotation kills every cookie cached before the
    first, and local guards cache for days without re-probing on failure.
    So rotations are budgeted: the actuator compares the factory's
    generation against its baseline and refuses once the budget is spent
    (a crash-restart rotation consumes it too).
    """

    name = "key-rotation"

    def __init__(
        self,
        guard: "RemoteDnsGuard",
        rng: "random.Random",
        *,
        period: float = 5.0,
        engage_level: int = 2,
        max_rotations: int = 1,
    ):
        super().__init__()
        self.guard = guard
        self.rng = rng
        self.period = period
        self.engage_level = engage_level
        self.max_rotations = max_rotations
        self._base_generation = guard.cookies.generation
        # period counts from construction: escalating does not rotate
        # immediately, it only *starts the clock* ticking faster
        self._last_rotation = guard.node.sim.now
        self.rotations = 0

    def _enact(self, level: int) -> None:
        # nothing to do on level change itself; rotation is time-driven
        return

    def tick(self, now: float) -> bool:
        if self.level < self.engage_level:
            return False
        if self.guard.cookies.generation - self._base_generation >= self.max_rotations:
            return False
        if now - self._last_rotation < self.period:
            return False
        self.guard.rotate_cookie_key(random_key(self.rng))
        self._last_rotation = now
        self.rotations += 1
        return True


def default_actuators(
    guard: "RemoteDnsGuard", rng: "random.Random"
) -> list[Actuator]:
    """The full ladder: scheme + limiter tuning + admission + key rotation."""
    return [
        SchemeActuator(guard),
        RateLimitActuator(guard),
        AdmissionActuator(guard),
        KeyRotationActuator(guard, rng),
    ]
