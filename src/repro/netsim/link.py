"""Point-to-point links with propagation delay, bandwidth and loss.

A link joins exactly two nodes.  Each direction has its own transmission
queue: packets serialise at ``bandwidth`` bytes/sec (infinite if ``None``)
and arrive ``delay`` seconds after serialisation completes.  When more than
``queue_limit`` seconds of serialisation work is queued, the tail drops —
the classic droptail bottleneck an amplification attack saturates.

Beyond the steady-state model, a link carries the knobs the fault-injection
subsystem (:mod:`repro.faults`) turns:

* ``up`` — an administratively-down link eats every packet (blackouts,
  flaps);
* ``loss_model`` — replaces the uniform ``loss`` probability with a
  stateful model such as :class:`GilbertElliottLoss` for bursty loss;
* ``duplicate_prob`` / ``reorder_prob`` + ``reorder_delay`` /
  ``corrupt_prob`` — per-packet duplication, reordering (an extra delayed
  copy overtaken by later packets) and corruption (the receiver's checksum
  fails, so the packet is counted and dropped).

Fault randomness is drawn from ``fault_rng`` (normally a named child stream
of ``Simulator.rng`` — see :meth:`Simulator.child_rng`), never from the
core RNG, so installing a fault model does not perturb the rest of the
event trace.

A packet on a pristine link (up, lossless, jitter-free, no fault knob set)
costs one test of ``_impaired``, which every assignment to a knob
re-derives — the constructor's, :meth:`Link.clear_faults`' and
:mod:`repro.faults`' direct writes alike.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Protocol

from .packet import Packet
from .simulator import Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    import random

    from .node import Node


class LossModel(Protocol):
    """Anything with a per-packet drop decision (stateful models welcome)."""

    def should_drop(self) -> bool:  # pragma: no cover - protocol
        ...


class GilbertElliottLoss:
    """The classic two-state (good/bad) bursty-loss channel model.

    Each transmitted packet first advances the state machine — good→bad
    with probability ``p_good_to_bad``, bad→good with ``p_bad_to_good`` —
    then drops with the current state's loss probability (``loss_good`` /
    ``loss_bad``).  Mean burst length is ``1 / p_bad_to_good`` packets;
    stationary loss is ``pi_bad * loss_bad + pi_good * loss_good`` with
    ``pi_bad = p_gb / (p_gb + p_bg)``.

    ``rng`` must be a seeded stream — fault injection passes a named child
    stream of the simulator RNG so enabling the model never perturbs the
    core event sequence.
    """

    __slots__ = (
        "rng",
        "p_good_to_bad",
        "p_bad_to_good",
        "loss_good",
        "loss_bad",
        "bad",
        "transitions",
        "drops",
    )

    def __init__(
        self,
        rng: "random.Random",
        *,
        p_good_to_bad: float = 0.01,
        p_bad_to_good: float = 0.25,
        loss_good: float = 0.0,
        loss_bad: float = 1.0,
        start_bad: bool = False,
    ):
        for label, p in (
            ("p_good_to_bad", p_good_to_bad),
            ("p_bad_to_good", p_bad_to_good),
            ("loss_good", loss_good),
            ("loss_bad", loss_bad),
        ):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{label} must be a probability, got {p}")
        self.rng = rng
        self.p_good_to_bad = p_good_to_bad
        self.p_bad_to_good = p_bad_to_good
        self.loss_good = loss_good
        self.loss_bad = loss_bad
        self.bad = start_bad
        self.transitions = 0
        self.drops = 0

    def should_drop(self) -> bool:
        flip = self.p_bad_to_good if self.bad else self.p_good_to_bad
        if flip and self.rng.random() < flip:
            self.bad = not self.bad
            self.transitions += 1
        loss = self.loss_bad if self.bad else self.loss_good
        if loss <= 0.0:
            return False
        dropped = loss >= 1.0 or self.rng.random() < loss
        if dropped:
            self.drops += 1
        return dropped


class _Direction:
    """Per-direction transmission state, and the ``receive`` of the node
    that direction feeds, bound once rather than per packet."""

    __slots__ = (
        "receive",
        "busy_until",
        "bytes_sent",
        "packets_sent",
        "packets_dropped",
        "packets_duplicated",
        "packets_corrupted",
        "packets_reordered",
    )

    def __init__(self, receiver: "Node") -> None:
        self.receive = receiver.receive
        self.busy_until = 0.0
        self.bytes_sent = 0
        self.packets_sent = 0
        self.packets_dropped = 0
        self.packets_duplicated = 0
        self.packets_corrupted = 0
        self.packets_reordered = 0


#: The knobs off at 0, and every attribute whose assignment re-derives
#: ``Link._impaired`` (``loss`` and ``jitter`` ride the impaired path too).
_FAULT_PROBS = ("loss", "jitter", "duplicate_prob", "reorder_prob", "corrupt_prob")
_FAULT_KNOBS = frozenset(("up", "loss_model", *_FAULT_PROBS))


class Link:
    """A bidirectional point-to-point link."""

    def __setattr__(self, name: str, value) -> None:
        object.__setattr__(self, name, value)
        if name in _FAULT_KNOBS:
            knobs = self.__dict__
            impaired = not knobs.get("up", True) or knobs.get("loss_model") is not None
            object.__setattr__(
                self, "_impaired", impaired or any(knobs.get(knob) for knob in _FAULT_PROBS)
            )

    def __init__(
        self,
        sim: Simulator,
        a: "Node",
        b: "Node",
        *,
        delay: float = 0.0002,
        bandwidth: float | None = None,
        loss: float = 0.0,
        jitter: float = 0.0,
        queue_limit: float = 0.1,
    ):
        """``delay`` is one-way propagation in seconds (default gives the
        paper's 0.4 ms testbed RTT); ``bandwidth`` is bytes/sec; ``jitter``
        adds a uniform ±jitter perturbation to each packet's delay."""
        if not 0.0 <= loss <= 1.0:
            raise ValueError("loss must be a probability")
        if jitter < 0 or jitter > delay:
            if jitter != 0.0:
                raise ValueError("jitter must be within [0, delay]")
        self.sim = sim
        self.a = a
        self.b = b
        self.delay = delay
        self.bandwidth = bandwidth
        self.loss = loss
        self.jitter = jitter
        self.queue_limit = queue_limit
        #: administratively up?  A downed link eats every packet.
        self.up = True
        #: stateful loss model; when set it replaces the uniform ``loss``.
        self.loss_model: LossModel | None = None
        #: fault-injection knobs (all default off; see module docstring)
        self.duplicate_prob = 0.0
        self.reorder_prob = 0.0
        self.reorder_delay = 0.0
        self.corrupt_prob = 0.0
        #: RNG for the fault knobs above.  Left as None, the seeded core
        #: RNG is used; fault injection installs a named child stream so
        #: fault randomness cannot perturb the core event sequence.
        self.fault_rng: "random.Random | None" = None
        self._directions = {a: _Direction(b), b: _Direction(a)}
        a.attach(self)
        b.attach(self)
        if sim.obs is not None:
            sim.obs.register_link(self)

    def other(self, node: "Node") -> "Node":
        """The peer on the far end of the link from ``node``."""
        if node is self.a:
            return self.b
        if node is self.b:
            return self.a
        raise ValueError(f"{node} is not attached to this link")

    def clear_faults(self) -> None:
        """Restore the pristine no-fault configuration (link stays up)."""
        self.loss_model = None
        self.duplicate_prob = 0.0
        self.reorder_prob = 0.0
        self.reorder_delay = 0.0
        self.corrupt_prob = 0.0

    def transmit(self, packet: Packet, sender: "Node") -> bool:
        """Send ``packet`` from ``sender`` toward the other end.

        Returns False if the packet was dropped (link down, queue overflow,
        random loss or corruption); arrival at the peer is otherwise
        scheduled — twice, when the duplication fault fires.
        """
        direction = self._directions[sender]
        impaired = self._impaired
        if impaired and not self.up:
            direction.packets_dropped += 1
            return False
        sim = self.sim
        now = sim.now
        size = packet._size or packet.size
        bandwidth = self.bandwidth
        if bandwidth is not None:
            serialization = size / bandwidth
            queued = max(0.0, direction.busy_until - now)
            if queued > self.queue_limit:
                direction.packets_dropped += 1
                return False
            start = max(direction.busy_until, now)
            direction.busy_until = start + serialization
            departure = direction.busy_until
        else:
            departure = now
        delay = self.delay
        if impaired:
            if self.loss_model is not None:
                if self.loss_model.should_drop():
                    direction.packets_dropped += 1
                    return False
            elif self.loss and sim.rng.random() < self.loss:
                direction.packets_dropped += 1
                return False
            fault_rng = self.fault_rng if self.fault_rng is not None else sim.rng
            if self.corrupt_prob and fault_rng.random() < self.corrupt_prob:
                # bit errors in flight: the receiver's checksum rejects it, so
                # from the endpoints' viewpoint the packet was simply lost
                direction.packets_corrupted += 1
                direction.packets_dropped += 1
                return False
            if self.jitter:
                delay += sim.rng.uniform(-self.jitter, self.jitter)
            if self.reorder_prob and fault_rng.random() < self.reorder_prob:
                # held back long enough for later packets to overtake it
                direction.packets_reordered += 1
                delay += self.reorder_delay if self.reorder_delay > 0 else self.delay
        direction.bytes_sent += size
        direction.packets_sent += 1
        receive = direction.receive
        # Same-instant arrivals at one node serialize in send order: a real
        # box drains one NIC queue, so two deliveries interfering on the
        # receiver's state (rate-limiter buckets, held-query tables) is
        # serial processing, not a race.  The FIFO tie-break *is* the
        # queue; the interference monitor is told so here rather than per
        # cell, because the contract is about this schedule site, not
        # about any particular attribute.
        sim.schedule_at(departure + delay, receive, packet, self)  # repro: allow[R003,R004] same-node deliveries drain one serial queue in send order
        if impaired and self.duplicate_prob and fault_rng.random() < self.duplicate_prob:
            direction.packets_duplicated += 1
            # an independent copy (every field, span and measured size
            # included): routers decrement ttl in place, and the two
            # arrivals must not share that mutation
            twin = dataclasses.replace(packet)
            sim.schedule_at(departure + delay + self.delay, receive, twin, self)  # repro: allow[R003,R004] duplicate delivery follows the same serial-queue contract
        return True

    def stats(self, sender: "Node") -> tuple[int, int, int]:
        """(packets_sent, packets_dropped, bytes_sent) for ``sender``'s direction."""
        d = self._directions[sender]
        return d.packets_sent, d.packets_dropped, d.bytes_sent

    def fault_stats(self, sender: "Node") -> dict[str, int]:
        """Fault-path counters for ``sender``'s direction."""
        d = self._directions[sender]
        return {
            "duplicated": d.packets_duplicated,
            "corrupted": d.packets_corrupted,
            "reordered": d.packets_reordered,
        }
