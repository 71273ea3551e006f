"""Hybrid fluid/packet client mode: bulk populations as arrival-rate fluids.

The packet-level simulator spends ~4-6 events per request; modelling the
north star's "millions of users" that way is 10⁷ events per simulated
second.  This module promotes :class:`repro.experiments.fluid.FluidModel`
from closed-form checker to first-class *background population*: bulk
legitimate and attack load enters the guard as fluid arrival-rate
processes that consume CPU through the existing :class:`repro.netsim.cpu`
accounting — one aggregate service-queue submission per tick instead of
one per packet — while a tracked *foreground cohort* stays packet-level
and experiences the contention (queueing delay, drops, timeouts) the
fluids create.  One cell can model 10⁶+ stub clients in a few thousand
events.

Fidelity contract (cross-validated by ``tests/farm/test_hybrid.py``):
on the calibration scenario the hybrid guard/ANS CPU curves and the
foreground availability stay within a stated tolerance of (a) the pure
packet-level run and (b) the fluid closed forms.

Everything here is deterministic — the fluids are measure-zero processes
with no randomness, and the foreground cohort draws from its own seeded
testbed — so hybrid cells inherit the farm's bit-identical trace-hash
guarantee.
"""

from __future__ import annotations

import dataclasses

from ..dns import ANS_SIMULATOR_COST, LrsSimulator
from ..experiments.fluid import FluidModel
from ..experiments.testbed import ANS_ADDRESS, GuardTestbed
from ..netsim.cpu import Cpu
from ..netsim.simulator import Simulator

#: Default fluid integration step.  Small enough that per-tick aggregate
#: jobs stay comparable to the ANS's shallow service queue, large enough
#: that a simulated second costs ~2000 events per fluid.
DEFAULT_TICK = 0.0005

#: Per-client request rate used to translate "modeled clients" into an
#: aggregate arrival rate (a stub resolver issuing one query every 10 s);
#: 10⁶ clients then offer ~91% of the ANS's service capacity.
PER_CLIENT_RATE = 0.1


class FluidFlood:
    """An attack population as a fluid: rate × unit-cost burned per tick.

    ``charges`` is a list of ``(cpu, unit_cost)`` pairs; each tick burns
    ``rate * tick * unit_cost`` on every listed CPU as pure accounting —
    the §IV.C point that discarding (or blindly serving) spoofed packets
    still costs cycles.  With the guard enabled that is one charge at
    ``drop_invalid`` cost; disabled, the flood charges the guard's
    forwarding cost *and* the ANS's service cost.
    """

    __slots__ = ("sim", "charges", "rate", "tick", "offered", "_running", "_handle")

    def __init__(
        self,
        sim: Simulator,
        charges: list[tuple[Cpu, float]],
        *,
        rate: float,
        tick: float = DEFAULT_TICK,
    ):
        if rate < 0:
            raise ValueError("attack rate must be non-negative")
        self.sim = sim
        self.charges = list(charges)
        self.rate = rate
        self.tick = tick
        self.offered = 0.0
        self._running = False
        self._handle = None

    def start(self) -> None:
        if self._running or self.rate == 0:
            return
        self._running = True
        self._handle = self.sim.schedule(self.tick, self._on_tick)

    def stop(self) -> None:
        self._running = False
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _on_tick(self) -> None:
        if not self._running:
            return
        batch = self.rate * self.tick
        self.offered += batch
        for cpu, unit_cost in self.charges:
            cpu.charge(batch * unit_cost)
        # constant-rate by design: a continuous process at a fixed step
        self._handle = self.sim.schedule(self.tick, self._on_tick)


class FluidPopulation:
    """A bulk legitimate population as a guard→ANS fluid service chain.

    Each tick a batch of ``rate × tick`` requests is offered: the guard
    CPU is asked for one aggregate job of ``batch × guard_cost`` seconds;
    on its completion the ANS CPU is asked for ``batch × ans_cost``; on
    *that* completion the batch counts as served.  A submission rejected
    by either service queue (backlog over the limit — exactly how an
    overloaded BIND drops requests) counts the batch as dropped, so
    availability degrades through the same queue-limit mechanism the
    packet path uses, not through a side formula.
    """

    __slots__ = (
        "sim",
        "guard_cpu",
        "ans_cpu",
        "rate",
        "clients",
        "guard_cost",
        "ans_cost",
        "tick",
        "offered",
        "served",
        "guard_dropped",
        "ans_dropped",
        "_window_offered",
        "_window_served",
        "_window_started_at",
        "_running",
        "_handle",
    )

    def __init__(
        self,
        sim: Simulator,
        guard_cpu: Cpu,
        ans_cpu: Cpu,
        *,
        rate: float | None = None,
        clients: int | None = None,
        guard_cost: float,
        ans_cost: float = ANS_SIMULATOR_COST,
        tick: float = DEFAULT_TICK,
    ):
        if rate is None:
            if clients is None:
                raise ValueError("pass rate= or clients=")
            rate = clients * PER_CLIENT_RATE
        self.sim = sim
        self.guard_cpu = guard_cpu
        self.ans_cpu = ans_cpu
        self.rate = rate
        self.clients = clients if clients is not None else round(rate / PER_CLIENT_RATE)
        self.guard_cost = guard_cost
        self.ans_cost = ans_cost
        self.tick = tick
        self.offered = 0.0
        self.served = 0.0
        self.guard_dropped = 0.0
        self.ans_dropped = 0.0
        self._window_offered = 0.0
        self._window_served = 0.0
        self._window_started_at = 0.0
        self._running = False
        self._handle = None

    def start(self) -> None:
        if self._running or self.rate == 0:
            return
        self._running = True
        self._handle = self.sim.schedule(self.tick, self._on_tick)

    def stop(self) -> None:
        self._running = False
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _on_tick(self) -> None:
        if not self._running:
            return
        batch = self.rate * self.tick
        self.offered += batch
        if not self.guard_cpu.submit(batch * self.guard_cost, self._at_ans, batch):
            self.guard_dropped += batch
        # constant-rate by design: a continuous process at a fixed step
        self._handle = self.sim.schedule(self.tick, self._on_tick)

    def _at_ans(self, batch: float) -> None:
        if not self.ans_cpu.submit(batch * self.ans_cost, self._served_batch, batch):
            self.ans_dropped += batch

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

    def window_served_rate(self, now: float) -> float:
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
    foreground_sent: int
    foreground_completed: int
    foreground_timeouts: int
    foreground_availability: float
    guard_cpu: float
    ans_cpu: float
    events: int


def run_hybrid_point(
    attack_rate: float,
    protection: bool = True,
    *,
    seed: int = 0,
    clients: int = 1_000_000,
    legit_rate: float | None = None,
    foreground_rate: float = 500.0,
    foreground_concurrency: int = 8,
    warmup: float = 0.25,
    duration: float = 0.3,
    tick: float = DEFAULT_TICK,
    model: FluidModel | None = None,
) -> HybridPoint:
    """One guard-under-attack sample with fluid bulk load.

    The bulk legitimate population (``clients`` stub resolvers, or an
    explicit ``legit_rate``) and the spoofed flood are fluids; one paced
    packet-level LRS behind a local guard is the tracked foreground
    cohort whose availability and latency are measured end to end.
    """
    model = model or FluidModel()
    bed = GuardTestbed(
        seed=seed, ans="simulator", ans_mode="answer", guard_enabled=protection
    )
    legit_node = bed.add_client("fg-lrs", via_local_guard=True)
    foreground = LrsSimulator(
        legit_node,
        ANS_ADDRESS,
        workload="plain",
        concurrency=foreground_concurrency,
        target_rate=foreground_rate,
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
        clients=clients if legit_rate is None else None,
        guard_cost=bulk_guard_cost,
        ans_cost=model.ans_cost,
        tick=tick,
    )
    flood = FluidFlood(bed.sim, flood_charges, rate=attack_rate, tick=tick)

    foreground.start()
    population.start()
    flood.start()
    bed.run(warmup)

    stats = foreground.stats
    completed0, timeouts0 = stats.completed, stats.timeouts
    population.begin_window(bed.sim.now)
    guard_busy0 = guard_cpu.completed_busy_seconds()
    ans_busy0 = ans_cpu.completed_busy_seconds()
    t0 = bed.sim.now
    bed.run(duration)

    guard_util = guard_cpu.utilization(guard_busy0, t0)
    ans_util = ans_cpu.utilization(ans_busy0, t0)
    served_rate = population.window_served_rate(bed.sim.now)
    availability = population.window_availability()
    foreground.stop()
    population.stop()
    flood.stop()
    completed = stats.completed - completed0
    timeouts = stats.timeouts - timeouts0
    attempts = completed + timeouts
    return HybridPoint(
        attack_rate=attack_rate,
        protection=protection,
        clients=population.clients,
        fluid_offered_rate=population.rate,
        fluid_served_rate=served_rate,
        fluid_availability=availability,
        foreground_sent=attempts,
        foreground_completed=completed,
        foreground_timeouts=timeouts,
        foreground_availability=completed / attempts if attempts else 0.0,
        guard_cpu=guard_util,
        ans_cpu=ans_util,
        events=bed.sim.events_processed,
    )
