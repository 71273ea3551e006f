"""Containment timeline: how fast the guard contains a sudden attack.

The paper's deployment claim (§I): the guard "can even be deployed only
when a DoS attack arises and contains the DoS attack without lengthy
training or tuning."  This extension experiment measures that statement as
a time series: a legitimate workload runs; a 200K req/s spoofed flood
switches on mid-run; the guard's activation threshold trips within one
rate-estimator window and legitimate throughput recovers to its pre-attack
level while the flood is still running.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Callable

from ..attack import SpoofingAttacker
from ..dns import LrsSimulator
from ..netsim import Node, Simulator
from ..obs import MetricRegistry
from .testbed import ANS_ADDRESS, GuardTestbed

#: ``--fast`` attack window (the full run floods for one second).
FAST_ATTACK_DURATION = 0.5

#: Distinguishes several samplers of one kind inside one obs registry.
_sampler_ids = itertools.count()


@dataclasses.dataclass(slots=True)
class Sample:
    time: float
    value: float


class PeriodicSampler:
    """Stores ``read()`` in a history gauge every ``interval`` virtual seconds.

    The tick schedules events, so it is part of the experiment workload and
    cannot live in observe-only :mod:`repro.obs` (W002); the storage is an
    obs ``Gauge(track_history=True)``, in the run's Observability registry
    when one is installed (so the series reaches run reports and exports).
    ``read`` reports on the window since its previous call; :meth:`start`
    calls it once to open the first window.
    """

    def __init__(self, sim: Simulator, name: str, read: Callable[[], float],
                 interval: float = 0.1, **labels: str):
        self.sim = sim
        self.read = read
        self.interval = interval
        if sim.obs is not None:
            registry = sim.obs.registry
            labels["series"] = str(next(_sampler_ids))
        else:
            registry = MetricRegistry(lambda: sim.now)
        self.gauge = registry.gauge(name, track_history=True, **labels)
        self._running = False

    @property
    def samples(self) -> list[Sample]:
        return [Sample(t, v) for t, v in self.gauge.history]

    def start(self) -> None:
        self._running = True
        self.read()
        self.sim.schedule(self.interval, self._tick)

    def stop(self) -> None:
        self._running = False

    def _tick(self) -> None:
        if not self._running:
            return
        self.gauge.set(self.read())
        self.sim.schedule(self.interval, self._tick)  # repro: allow[P006] one heap push per sample (20/s); the periodic-tick debt farm/hybrid.py also carries


def completed_rate(stats, interval: float) -> Callable[[], float]:
    """Reader: ``stats.completed`` per second over one sampling interval."""
    last = stats.completed

    def read() -> float:
        nonlocal last
        delta, last = stats.completed - last, stats.completed
        return delta / interval

    return read


def cpu_utilization(node: Node) -> Callable[[], float]:
    """Reader: ``node``'s CPU utilisation since the previous call."""
    busy_mark = time_mark = 0.0

    def read() -> float:
        nonlocal busy_mark, time_mark
        value = node.cpu.utilization(busy_mark, time_mark)
        busy_mark = node.cpu.completed_busy_seconds()
        time_mark = node.sim.now
        return value

    return read


@dataclasses.dataclass(slots=True)
class ContainmentResult:
    """Time series around an attack that starts at ``attack_start``."""

    attack_start: float
    attack_rate: float
    threshold: float
    throughput: list[Sample]
    ans_cpu: list[Sample]
    baseline_throughput: float
    recovery_time: float | None  # seconds after attack start, None if never

    @property
    def contained(self) -> bool:
        return self.recovery_time is not None


def run_containment(
    *,
    attack_rate: float = 200_000.0,
    threshold: float = 120_000.0,
    seed: int = 0,
    sample_interval: float = 0.05,
    baseline_duration: float = 0.5,
    attack_duration: float = 1.0,
    fast: bool = False,
) -> ContainmentResult:
    """Run the timeline and find the post-attack recovery point; ``fast``
    shortens the attack window to :data:`FAST_ATTACK_DURATION`."""
    if fast:
        attack_duration = FAST_ATTACK_DURATION
    bed = GuardTestbed(
        seed=seed,
        ans="simulator",
        ans_mode="answer",
        activation_threshold=threshold,
    )
    legit_node = bed.add_client("legit", via_local_guard=True)
    lrs = LrsSimulator(legit_node, ANS_ADDRESS, workload="plain", concurrency=128)
    attacker_node = bed.add_client("attacker")
    attacker = SpoofingAttacker(
        attacker_node, ANS_ADDRESS, rate=attack_rate, carry_invalid_cookie=True
    )

    throughput = PeriodicSampler(
        bed.sim, "collector.throughput",
        completed_rate(lrs.stats, sample_interval), sample_interval,
    )
    ans_cpu = PeriodicSampler(
        bed.sim, "collector.cpu_utilization",
        cpu_utilization(bed.ans_node), sample_interval, node=bed.ans_node.name,
    )
    lrs.start()
    throughput.start()
    ans_cpu.start()

    bed.run(baseline_duration)
    attack_start = bed.sim.now
    attacker.start()
    bed.run(attack_duration)
    attacker.stop()
    lrs.stop()
    throughput.stop()
    ans_cpu.stop()

    baseline_samples = [s.value for s in throughput.samples if s.time <= attack_start]
    baseline = sum(baseline_samples) / len(baseline_samples) if baseline_samples else 0.0

    recovery_time = None
    for sample in throughput.samples:
        if sample.time <= attack_start + sample_interval:
            continue
        if sample.value >= 0.9 * baseline:
            recovery_time = sample.time - attack_start
            break

    return ContainmentResult(
        attack_start=attack_start,
        attack_rate=attack_rate,
        threshold=threshold,
        throughput=throughput.samples,
        ans_cpu=ans_cpu.samples,
        baseline_throughput=baseline,
        recovery_time=recovery_time,
    )


def cells(result: ContainmentResult) -> dict:
    out: dict = {"baseline_throughput": result.baseline_throughput, "contained": result.contained}
    if result.contained:
        out["recovery_time"] = result.recovery_time
        # it stays recovered for the rest of the attack
        settled = result.attack_start + result.recovery_time + 0.1
        tail = [s.value for s in result.throughput if s.time > settled]
        out["tail.samples"] = len(tail)
        if tail:
            out["tail.min/baseline"] = min(tail) / result.baseline_throughput
    return out


def format_containment(result: ContainmentResult) -> str:
    lines = [
        "Containment timeline: spoofed flood starts at "
        f"t={result.attack_start:.2f}s ({result.attack_rate / 1000:.0f}K req/s, "
        f"threshold {result.threshold / 1000:.0f}K)",
        f"{'t (s)':>8} {'legit (K/s)':>12} {'ANS CPU %':>10}",
    ]
    cpu_by_time = {s.time: s.value for s in result.ans_cpu}
    for sample in result.throughput:
        marker = "  <- attack starts" if abs(
            sample.time - result.attack_start - 0.05
        ) < 1e-9 else ""
        cpu = cpu_by_time.get(sample.time)
        cpu_text = f"{cpu * 100:>10.0f}" if cpu is not None else f"{'':>10}"
        lines.append(
            f"{sample.time:>8.2f} {sample.value / 1000:>12.1f} {cpu_text}{marker}"
        )
    if result.contained:
        lines.append(
            f"legitimate throughput recovered to >=90% of baseline "
            f"{result.recovery_time * 1000:.0f} ms after the attack began"
        )
    else:
        lines.append("legitimate throughput never recovered (NOT contained)")
    return "\n".join(lines)
