"""Hybrid fluid/packet mode: bulk populations as arrival-rate fluids.

The packet-level simulator spends ~4-6 events per request; modelling the
north star's "millions of users" that way is 10⁷ events per simulated
second.  This module promotes :class:`repro.experiments.fluid.FluidModel`
from closed-form checker to first-class *background population*: bulk
legitimate and attack load enters the guard as fluid arrival-rate
processes that consume CPU through the existing :class:`repro.netsim.cpu`
accounting — one aggregate service-queue submission per tick instead of
one per packet — while a tracked *foreground cohort* stays packet-level
and experiences the contention (queueing delay, drops, timeouts) the
fluids create.  One point can model 10⁶+ stub clients in a few thousand
events.

:func:`run_hybrid` is the ``python -m repro hybrid`` artefact, and the
``hybrid`` rows of :mod:`repro.experiments.expectations` are the fidelity
contract: the Figure 6 sweep under the fluid bulk is judged by Figure 6's
own rows, and on the calibration scenario the hybrid guard/ANS CPU, served
rate and foreground availability stay within declared bands of (a) the
fluid closed forms and (b) a pure packet-level run.

Everything here is deterministic — the fluids are measure-zero processes
with no randomness, and the foreground cohort draws from its own seeded
testbed.
"""

from __future__ import annotations

import dataclasses

from ..attack import SpoofingAttacker
from ..dns import LrsSimulator
from ..netsim.cpu import Cpu
from ..netsim.simulator import Simulator
from . import expectations, fig6
from .fluid import FluidModel
from .testbed import ANS_ADDRESS, GuardTestbed, measure_window

#: The fluid integration step.  Small enough that per-tick aggregate
#: jobs stay comparable to the ANS's shallow service queue, large enough
#: that a simulated second costs ~2000 events per fluid.
TICK = 0.0005

#: Per-client request rate used to translate "modeled clients" into an
#: aggregate arrival rate (a stub resolver issuing one query every 10 s);
#: 10⁶ clients then offer ~91% of the ANS's service capacity.
PER_CLIENT_RATE = 0.1

#: Modeled stub clients in a bulk population (the north-star scale knob).
CLIENTS = 1_000_000


class FluidFlood:
    """An attack population as a fluid: rate × unit-cost burned per tick.

    ``charges`` is a list of ``(cpu, unit_cost)`` pairs; each tick burns
    ``rate * TICK * unit_cost`` on every listed CPU as pure accounting —
    the §IV.C point that discarding (or blindly serving) spoofed packets
    still costs cycles.  With the guard enabled that is one charge at
    ``drop_invalid`` cost; disabled, the flood charges the guard's
    forwarding cost *and* the ANS's service cost.
    """

    __slots__ = ("sim", "charges", "rate")

    def __init__(self, sim: Simulator, charges: list[tuple[Cpu, float]], *, rate: float):
        if rate < 0:
            raise ValueError("attack rate must be non-negative")
        self.sim = sim
        self.charges = list(charges)
        self.rate = rate

    def start(self) -> None:
        if self.rate:
            self.sim.schedule(TICK, self._on_tick)

    def _on_tick(self) -> None:
        batch = self.rate * TICK
        for cpu, unit_cost in self.charges:
            cpu.charge(batch * unit_cost)
        # constant-rate by design: a continuous process at a fixed step
        self.sim.schedule(TICK, self._on_tick)


class FluidPopulation:
    """A bulk legitimate population as a guard→ANS fluid service chain.

    Each tick a batch of ``rate × TICK`` requests is offered: the guard
    CPU is asked for one aggregate job of ``batch × guard_cost`` seconds;
    on its completion the ANS CPU is asked for ``batch × ans_cost``; on
    *that* completion the batch counts as served.  A submission rejected
    by either service queue (backlog over the limit — exactly how an
    overloaded BIND drops requests) is a dropped batch, so availability
    degrades through the same queue-limit mechanism the packet path uses,
    not through a side formula.
    """

    __slots__ = (
        "sim",
        "guard_cpu",
        "ans_cpu",
        "rate",
        "guard_cost",
        "ans_cost",
        "offered",
        "served",
        "_window_offered",
        "_window_served",
        "_window_started_at",
    )

    def __init__(
        self,
        sim: Simulator,
        guard_cpu: Cpu,
        ans_cpu: Cpu,
        *,
        rate: float,
        guard_cost: float,
        ans_cost: float,
    ):
        self.sim = sim
        self.guard_cpu = guard_cpu
        self.ans_cpu = ans_cpu
        self.rate = rate
        self.guard_cost = guard_cost
        self.ans_cost = ans_cost
        self.offered = 0.0
        self.served = 0.0
        self._window_offered = 0.0
        self._window_served = 0.0
        self._window_started_at = 0.0

    def start(self) -> None:
        if self.rate:
            self.sim.schedule(TICK, self._on_tick)

    def _on_tick(self) -> None:
        batch = self.rate * TICK
        self.offered += batch
        self.guard_cpu.submit(batch * self.guard_cost, self._at_ans, batch)
        # constant-rate by design: a continuous process at a fixed step
        self.sim.schedule(TICK, self._on_tick)

    def _at_ans(self, batch: float) -> None:
        self.ans_cpu.submit(batch * self.ans_cost, self._served_batch, batch)

    def _served_batch(self, batch: float) -> None:
        self.served += batch

    # -- measurement -------------------------------------------------------

    def begin_window(self, now: float) -> None:
        self._window_offered = self.offered
        self._window_served = self.served
        self._window_started_at = now

    def window_availability(self) -> float:
        offered = self.offered - self._window_offered
        if offered <= 0:
            return 1.0
        return (self.served - self._window_served) / offered

    def throughput(self, now: float) -> float:
        """Served requests/sec since :meth:`begin_window` (a load stats'
        reading, so :func:`measure_window` takes a population)."""
        elapsed = now - self._window_started_at
        if elapsed <= 0:
            return 0.0
        return (self.served - self._window_served) / elapsed


@dataclasses.dataclass(slots=True)
class HybridPoint:
    """One hybrid-mode sample: fluid bulk curves + foreground cohort."""

    attack_rate: float
    protection: bool
    clients: int
    fluid_offered_rate: float
    fluid_served_rate: float
    fluid_availability: float
    foreground_availability: float
    guard_cpu: float
    ans_cpu: float
    events: int


def run_hybrid_point(
    attack_rate: float,
    protection: bool = True,
    *,
    seed: int = 0,
    legit_rate: float = CLIENTS * PER_CLIENT_RATE,
    warmup: float = 0.25,
    duration: float = 0.3,
) -> HybridPoint:
    """One guard-under-attack sample with fluid bulk load.

    The bulk legitimate population (``legit_rate``, by default
    :data:`CLIENTS` stub resolvers) and the spoofed flood are fluids; one
    paced packet-level LRS behind a local guard is the tracked foreground
    cohort whose availability is measured end to end.
    """
    model = FluidModel()
    bed = GuardTestbed(
        seed=seed, ans="simulator", ans_mode="answer", guard_enabled=protection
    )
    legit_node = bed.add_client("fg-lrs", via_local_guard=True)
    foreground = LrsSimulator(
        legit_node, ANS_ADDRESS, workload="plain", concurrency=8, target_rate=500.0
    )

    guard_cpu = bed.guard_node.cpu
    ans_cpu = bed.ans_node.cpu
    if protection:
        # verified bulk traffic: validate-and-forward + response transform
        bulk_guard_cost = model.request_cost("modified", cache_hit=True)
        flood_charges = [(guard_cpu, model.attack_drop_cost())]
    else:
        # no verification: the guard merely forwards, and the flood
        # reaches the ANS at full service cost
        bulk_guard_cost = model.costs.forward
        flood_charges = [(guard_cpu, model.costs.forward), (ans_cpu, model.ans_cost)]

    population = FluidPopulation(
        bed.sim,
        guard_cpu,
        ans_cpu,
        rate=legit_rate,
        guard_cost=bulk_guard_cost,
        ans_cost=model.ans_cost,
    )
    flood = FluidFlood(bed.sim, flood_charges, rate=attack_rate)

    foreground.start()
    population.start()
    flood.start()
    bed.run(warmup)

    stats = foreground.stats
    completed0, timeouts0 = stats.completed, stats.timeouts
    (served_rate,), (guard_util, ans_util) = measure_window(
        bed.sim, [population], duration, nodes=(bed.guard_node, bed.ans_node)
    )
    completed = stats.completed - completed0
    attempts = completed + stats.timeouts - timeouts0
    return HybridPoint(
        attack_rate=attack_rate,
        protection=protection,
        clients=round(legit_rate / PER_CLIENT_RATE),
        fluid_offered_rate=legit_rate,
        fluid_served_rate=served_rate,
        fluid_availability=population.window_availability(),
        foreground_availability=completed / attempts if attempts else 0.0,
        guard_cpu=guard_util,
        ans_cpu=ans_util,
        events=bed.sim.events_processed,
    )


# -- the artefact: the Figure 6 sweep under fluid bulk, and the calibration --

#: The calibration scenario: a bulk legitimate fluid and a spoofed flood
#: fluid, protection on, over one window; the unprotected point floods the
#: same bulk at ``CALIBRATION_UNPROTECTED_ATTACK``.
CALIBRATION_LEGIT_RATE = 20_000.0
CALIBRATION_ATTACK_RATE = 60_000.0
CALIBRATION_UNPROTECTED_ATTACK = 100_000.0
CALIBRATION_WINDOW = {"warmup": 0.1, "duration": 0.25}


@dataclasses.dataclass(slots=True)
class PacketReference:
    """The calibration scenario with every client packet-level."""

    bulk_rate: float
    guard_cpu: float
    foreground_availability: float
    events: int


def run_packet_reference() -> PacketReference:
    """The calibration scenario, every client packet-level: a paced bulk
    LRS, the same foreground cohort, and a spoofing attacker."""
    bed = GuardTestbed(ans="simulator", ans_mode="answer")
    bulk = LrsSimulator(
        bed.add_client("bulk", via_local_guard=True), ANS_ADDRESS, workload="plain",
        concurrency=64, target_rate=CALIBRATION_LEGIT_RATE,
    )
    foreground = LrsSimulator(
        bed.add_client("fg", via_local_guard=True), ANS_ADDRESS, workload="plain",
        concurrency=8, target_rate=500.0,
    )
    attacker = SpoofingAttacker(
        bed.add_client("attacker"), ANS_ADDRESS, rate=CALIBRATION_ATTACK_RATE,
        carry_invalid_cookie=True,
    )
    bulk.start()
    foreground.start()
    attacker.start()
    (bulk_rate,), (guard_cpu,) = measure_window(
        bed.sim, [bulk.stats], nodes=(bed.guard_node,), **CALIBRATION_WINDOW
    )
    stats = foreground.stats
    attempts = stats.completed + stats.timeouts
    return PacketReference(
        bulk_rate=bulk_rate,
        guard_cpu=guard_cpu,
        foreground_availability=stats.completed / attempts if attempts else 0.0,
        events=bed.sim.events_processed,
    )


def run_hybrid() -> tuple[list[HybridPoint], HybridPoint, HybridPoint, PacketReference]:
    """The ledger's hybrid run: the Figure 6 sweep at the report's attack
    rates with :data:`CLIENTS` fluid clients (protection on, then off), then
    the calibration scenario as a hybrid point, unprotected, and as a
    packet run."""
    sweep = [
        run_hybrid_point(rate, protection, warmup=0.1, duration=0.2)
        for protection in (True, False)
        for rate in expectations.FIG6_ATTACK_RATES
    ]
    calibration = run_hybrid_point(
        CALIBRATION_ATTACK_RATE, True, legit_rate=CALIBRATION_LEGIT_RATE, **CALIBRATION_WINDOW
    )
    unprotected = run_hybrid_point(
        CALIBRATION_UNPROTECTED_ATTACK, False, legit_rate=CALIBRATION_LEGIT_RATE,
        **CALIBRATION_WINDOW,
    )
    return sweep, calibration, unprotected, run_packet_reference()


def cells(
    sweep: list[HybridPoint], calib: HybridPoint, unprotected: HybridPoint,
    packet: PacketReference,
) -> dict:
    """Figure 6's cells over the sweep, plus each band's two sides."""
    model = FluidModel()
    out = fig6.cells([
        fig6.Fig6Point(p.attack_rate, p.protection, p.fluid_served_rate, p.guard_cpu, p.ans_cpu)
        for p in sweep
    ])
    out.update({
        "sweep.clients": min(p.clients for p in sweep),
        "sweep.events": max(p.events for p in sweep),
        "sweep.offered": max(p.fluid_offered_rate for p in sweep),
        "calib.guard_cpu": calib.guard_cpu,
        "calib.ans_cpu": calib.ans_cpu,
        "calib.served": calib.fluid_served_rate,
        "calib.availability": calib.fluid_availability,
        "calib.fg_availability": calib.foreground_availability,
        "calib.events": calib.events,
        "calib.offered": calib.fluid_offered_rate,
        "calib.unprotected@100K": unprotected.fluid_served_rate,
        "fluid.guard_cpu": model.hybrid_guard_cpu(
            CALIBRATION_LEGIT_RATE, CALIBRATION_ATTACK_RATE
        ),
        "fluid.ans_cpu": model.hybrid_ans_cpu(calib.fluid_served_rate),
        "fluid.served": model.hybrid_served_rate(
            CALIBRATION_LEGIT_RATE, CALIBRATION_ATTACK_RATE
        ),
        "fluid.unprotected@100K": model.hybrid_served_rate(
            CALIBRATION_LEGIT_RATE, CALIBRATION_UNPROTECTED_ATTACK, protection=False
        ),
        "packet.guard_cpu": packet.guard_cpu,
        "packet.served": packet.bulk_rate,
        "packet.fg_availability": packet.foreground_availability,
        "packet.events": packet.events,
    })
    return expectations.derive(
        out,
        "on.legit@250K/sweep.offered",
        "calib.guard_cpu-fluid.guard_cpu",
        "calib.guard_cpu-packet.guard_cpu",
        "calib.ans_cpu-fluid.ans_cpu",
        "calib.served/fluid.served",
        "calib.fg_availability-packet.fg_availability",
        "calib.events/packet.events",
        "calib.unprotected@100K/fluid.unprotected@100K",
        "calib.unprotected@100K/calib.offered",
    )


def format_hybrid(
    sweep: list[HybridPoint], calib: HybridPoint, unprotected: HybridPoint,
    packet: PacketReference,
) -> str:
    model = FluidModel()
    lines = [
        f"Hybrid fluid/packet mode: Figure 6 sweep, {CLIENTS:,} modeled clients "
        "per point",
        f"{'attack (K/s)':>12} {'prot':>5} {'bulk srv (K/s)':>14} "
        f"{'model (K/s)':>12} {'fg avail%':>10} {'guard CPU%':>11} "
        f"{'ANS CPU%':>9} {'events':>8}",
    ]
    for p in sweep:
        predicted = model.hybrid_served_rate(
            p.fluid_offered_rate, p.attack_rate, protection=p.protection
        )
        lines.append(
            f"{p.attack_rate / 1000:>12.0f} {'on' if p.protection else 'off':>5} "
            f"{p.fluid_served_rate / 1000:>14.1f} {predicted / 1000:>12.1f} "
            f"{p.foreground_availability * 100:>10.1f} {p.guard_cpu * 100:>11.1f} "
            f"{p.ans_cpu * 100:>9.1f} {p.events:>8}"
        )
    c = cells(sweep, calib, unprotected, packet)
    lines += [
        "",
        f"Calibration: {CALIBRATION_LEGIT_RATE / 1000:.0f}K req/s legitimate + "
        f"{CALIBRATION_ATTACK_RATE / 1000:.0f}K req/s spoofed, protection on",
        f"{'':<24}{'hybrid':>12}{'closed form':>12}{'packet run':>12}",
    ]
    for label, key, scale in (
        ("guard CPU %", "guard_cpu", 100), ("ANS CPU %", "ans_cpu", 100),
        ("bulk served (K/s)", "served", 1e-3), ("foreground avail %", "fg_availability", 100),
        ("events", "events", 1), ("served, off @100K (K/s)", "unprotected@100K", 1e-3),
    ):
        values = (c.get(f"{side}.{key}") for side in ("calib", "fluid", "packet"))
        text = "".join(
            f"{'':>12}" if v is None else f"{v * scale:>12.{1 if scale != 1 else 0}f}"
            for v in values
        )
        lines.append(f"{label:<24}{text}".rstrip())
    return "\n".join(lines)
