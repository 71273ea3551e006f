"""The run protocol: one workload, one process, untraced or traced.

Untraced (end-to-end metrics): five fresh-interpreter imports of
``repro.experiments`` are timed first; then one discarded warm repetition
at full size; then timed repetitions until both the minimum count and the
requested measuring time are reached.  A repetition collects garbage
(GC stays on), builds a new testbed and starts its generators (set-up),
then times only the simulated run — in slices, with the host-speed kernel
of :mod:`bench.hostspeed` timed after each, because the shared hosts this
runs on drift by tens of percent (see ``bench/README.md``).

Traced (per-layer metrics): one untraced repetition (the reference for
tracing overhead and events per second), one repetition under
:class:`bench.trace.LayerTracer`, then the isolated micro-benchmarks.

An *operation* is one repetition or one micro-benchmark.  It fails on an
exception, on a ``sim_digest`` that differs from the first repetition of
the same seed, or on a broken correctness check.
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

import repro
from repro.netsim import EventHandle, Simulator

from . import micro
from .hostspeed import NOMINAL_SECONDS, kernel
from .trace import LAYERS, OTHER, LayerTracer
from .workloads import BY_NAME, QUICK_SCALE, Outputs, Workload

#: Timed repetitions never go below this (``--quick`` runs exactly one).
MIN_REPS = 5

#: Slices a timed repetition is cut into, and the finer uniform steps the
#: warm repetition is timed in to place those cuts.
SLICES = 240
FINE_STEPS = 8 * SLICES

#: Fresh interpreters timed importing ``repro.experiments``.
IMPORT_SAMPLES = 5

#: Simulated seconds of guarded flood per side of the obs-overhead pairs.
OBS_FLOOD_SIM_SECONDS = 0.02

#: ``src/repro`` (what the tracer attributes) and ``src`` (what children import from).
PACKAGE_DIR = os.path.dirname(os.path.abspath(repro.__file__))
SRC_DIR = os.path.dirname(PACKAGE_DIR)

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

COUNT_UNITS = {
    "netsim.simulator.events": "count",
    "netsim.simulator.events_per_s": "1/s",
    "netsim.simulator.max_heap_depth": "count",
    "netsim.simulator.cancelled_share": "ratio",
    "netsim.link.pkts": "count",
    "netsim.cpu.drops": "count",
    "guard.pipeline.spoof_drop_share": "ratio",
    "dnswire.calls_per_pkt": "ratio",
    "trace.overhead_ratio": "ratio",
    "trace.attributed_share": "ratio",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in reporting order."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.self_share"] = "ratio"
        units[f"{layer}.calls"] = "count"
    units.update(COUNT_UNITS)
    for name in micro.NAMES:
        units[name] = "ratio" if name.endswith("_ratio") else "1/s"
    return units


def summarise(values: list[float]) -> dict:
    """Median, quartiles, extremes and count of a timing sample."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "n": len(values),
    }


def uniform_cuts(count: int) -> list[float]:
    """Fractions cutting a run into ``count`` equal steps of simulated time."""
    return [index / count for index in range(1, count)]


def equal_time_cuts(step_seconds: list[float], count: int) -> list[float]:
    """Cuts giving ``count`` slices of about equal *host* time.

    ``step_seconds`` is what each of a run's uniform steps of simulated time
    took.  Short slices everywhere are what lets the per-slice minimum find
    a quiet moment; uniform cuts would leave a workload whose cost sits in
    one phase (``bind_mixed`` after its tracker fills) with a few long ones.
    """
    target = sum(step_seconds) / count
    cuts, elapsed, due = [], 0.0, target
    for index, seconds in enumerate(step_seconds[:-1], start=1):
        elapsed += seconds
        if elapsed >= due:
            cuts.append(index / len(step_seconds))
            while due <= elapsed:
                due += target
    return cuts


def import_seconds(samples: int) -> list[float]:
    """Time ``import repro.experiments`` in ``samples`` fresh interpreters."""
    probe = (
        "import time; t0 = time.perf_counter(); import repro.experiments; "
        "print(time.perf_counter() - t0)"
    )
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    # what a user pays: bytecode cached after the first import, whatever the
    # caller's environment says (the first sample writes it, the median skips it)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    out = []
    for _ in range(samples):
        done = subprocess.run(
            [sys.executable, "-c", probe], env=env, check=True,
            capture_output=True, text=True, timeout=120,
        )
        out.append(float(done.stdout))
    return out


class Repetitions:
    """Runs repetitions of one workload and keeps the failure ledger."""

    def __init__(self, workload: Workload, seed: int, *, quick: bool):
        scale = QUICK_SCALE if quick else 1.0
        self.workload = workload
        self.seed = seed
        self.full_size = not quick
        self.warmup = workload.warmup * scale
        self.duration = workload.duration * scale
        self.attempted = 0
        self.failures: list[str] = []
        self.reference: Outputs | None = None
        #: where every timed repetition pauses (fractions of simulated time)
        self.cuts = uniform_cuts(SLICES)
        self.build_s: list[float] = []
        #: per timed repetition, per slice: (workload seconds, kernel seconds)
        self.slices: list[list[tuple[float, float]]] = []

    def _attempt(self, run) -> tuple[Outputs, float] | None:
        """Set up a fresh scenario, ``run(scenario)`` it, check what it simulated.

        Returns the outputs and the set-up seconds, or None if it raised.
        """
        self.attempted += 1
        label = f"repetition {self.attempted}"
        try:
            gc.collect()
            t0 = time.perf_counter()
            scenario = self.workload.build(self.seed)
            build_s = time.perf_counter() - t0
            outputs = run(scenario)
        except Exception:
            traceback.print_exc()
            self.failures.append(f"{label}: raised, see stderr")
            return None
        if self.reference is None:
            self.reference = outputs
        elif outputs.digest() != self.reference.digest():
            self.failures.append(f"{label}: sim_digest differs")
        broken = self.workload.check(outputs, full_size=self.full_size)
        self.failures.extend(f"{label}: {message}" for message in broken)
        return outputs, build_s

    def warm(self) -> None:
        """The discarded warm repetition; its fine-step times place the cuts."""
        clock = time.perf_counter
        marks = []

        def run(scenario):
            marks.append(clock())
            return scenario.run(
                self.warmup, self.duration, lambda: marks.append(clock()),
                uniform_cuts(FINE_STEPS),
            )

        if self._attempt(run) is not None:
            steps = [after - before for before, after in zip(marks, marks[1:])]
            self.cuts = equal_time_cuts(steps, SLICES)

    def timed(self) -> None:
        """One kept repetition: every slice timed, then the kernel timed."""
        clock = time.perf_counter
        slices = []

        def run(scenario):
            last = clock()

            def on_slice():
                nonlocal last
                work_done = clock()
                kernel()  # untimed: refills the caches the slice just used
                warm = clock()
                kernel()
                kernel_done = clock()
                slices.append((work_done - last, kernel_done - warm))
                last = kernel_done

            return scenario.run(self.warmup, self.duration, on_slice, self.cuts)

        if sys.getprofile() is not None:
            self.failures.append(f"repetition {self.attempted + 1}: a profile hook is installed")
        done = self._attempt(run)
        if done is not None:
            self.build_s.append(done[1])
            self.slices.append(slices)

    def traced(self, tracer: LayerTracer) -> Outputs | None:
        """One repetition under ``tracer``, unsliced."""

        def run(scenario):
            sim = scenario.bed.sim
            tracer.sampler = ("step", lambda: sim.live_pending_events)
            return tracer.run(lambda: scenario.run(self.warmup, self.duration))

        done = self._attempt(run)
        return done[0] if done is not None else None

    def raw_wall_s(self) -> list[float]:
        """Host seconds each kept repetition spent in the workload's slices."""
        return [sum(work for work, _ in rep) for rep in self.slices]

    def wall_s(self) -> tuple[float, float]:
        """The timed region's seconds at nominal host speed, and the slowdown.

        Slice by slice, the fastest repetition is taken (interference only
        ever adds time, and every repetition does identical work in a
        slice); the same is done for the kernel calls that followed.  The
        kernel's sum over its nominal time is how much slower than nominal
        the host ran at its best; the workload's sum is divided by that.
        """
        columns = list(zip(*self.slices))
        work = sum(min(work for work, _ in column) for column in columns)
        yardstick = sum(min(cal for _, cal in column) for column in columns)
        slowdown = yardstick / (NOMINAL_SECONDS * len(columns))
        return work / slowdown, slowdown

    def detail(self) -> dict:
        """The simulated results every report carries beside the timings."""
        ref = self.reference
        return {
            "workload": self.workload.name,
            "seed": self.seed,
            "sim_seconds": ref.sim_seconds,
            "sim_digest": ref.digest(),
            "legit_krps": ref.legit_rps / 1000.0,
            "paper_krps": self.workload.paper_krps,
            "paper_rel_err": self.workload.paper_rel_err(ref),
            "guard_cpu": ref.guard_cpu,
            "ans_cpu": ref.ans_cpu,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "failures": self.failures,
        }


def run_untraced(workload: Workload, seed: int, seconds: float, *, quick: bool) -> dict:
    """End-to-end metrics of one workload; see the module docstring."""
    imports = import_seconds(1 if quick else IMPORT_SAMPLES)
    reps = Repetitions(workload, seed, quick=quick)
    if not quick:
        reps.warm()
    remaining = 1 if quick else MIN_REPS
    started = time.perf_counter()
    while remaining > 0 or time.perf_counter() - started < seconds:
        reps.timed()
        remaining -= 1
    if not reps.slices:
        raise RuntimeError(f"{workload.name}: no repetition completed")
    wall_s, slowdown = reps.wall_s()
    raw = summarise(reps.raw_wall_s())
    build = summarise(reps.build_s)
    imported = summarise(imports)
    result = reps.detail()
    result["trace"] = 0
    result["timings"] = {"raw_wall_s": raw, "build_s": build, "import_s": imported}
    result["host_slowdown"] = slowdown
    result["sim_s_per_wall_s"] = reps.reference.sim_seconds / wall_s
    result["metrics"] = {
        "wall_s": wall_s,
        "setup_s": imported["median"] + build["median"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return result


def _obs_flood(seed: int, quick: bool):
    """A short ``flood_modified`` run, for ``obs.overhead_ratio``."""
    flood = BY_NAME["flood_modified"]
    sim_seconds = OBS_FLOOD_SIM_SECONDS * (QUICK_SCALE if quick else 1.0)

    def run():
        flood.build(seed).run(sim_seconds / 2, sim_seconds / 2)

    return run


def run_traced(workload: Workload, seed: int, *, quick: bool) -> dict:
    """Per-layer metrics of one workload; see the module docstring."""
    reps = Repetitions(workload, seed, quick=quick)
    reps.timed()
    if not reps.slices:
        raise RuntimeError(f"{workload.name}: the untraced repetition failed")
    untraced_wall = reps.raw_wall_s()[0]

    tracer = LayerTracer(
        PACKAGE_DIR,
        counted={
            "step": Simulator.step.__code__,
            "schedule": Simulator.schedule_at.__code__,
            "cancel": EventHandle.cancel.__code__,
        },
    )
    outputs = reps.traced(tracer)
    if outputs is None:
        raise RuntimeError(f"{workload.name}: the traced repetition failed")

    self_s = tracer.self_seconds()
    entries = tracer.entries()
    total = tracer.total_s
    metrics: dict[str, float] = {}
    for index, layer in enumerate(LAYERS):
        metrics[f"{layer}.self_s"] = self_s[index]
        metrics[f"{layer}.self_share"] = self_s[index] / total
        metrics[f"{layer}.calls"] = entries[index]
    guard = outputs.guard_stats
    refused = sum(
        guard[key] for key in ("invalid_drops", "rl1_drops", "rl2_drops", "admission_shed")
    )
    counts = tracer.counts
    metrics.update({
        "netsim.simulator.events": outputs.timed_events,
        "netsim.simulator.events_per_s": outputs.timed_events / untraced_wall,
        "netsim.simulator.max_heap_depth": tracer.sample_max,
        "netsim.simulator.cancelled_share": counts["cancel"] / max(1, counts["schedule"]),
        "netsim.link.pkts": outputs.link_pkts,
        "netsim.cpu.drops": outputs.cpu_drops,
        "guard.pipeline.spoof_drop_share": refused / max(1, guard["queries_seen"]),
        "dnswire.calls_per_pkt": entries[LAYERS.index("dnswire")] / max(1, outputs.link_pkts),
        "trace.overhead_ratio": total / untraced_wall,
        "trace.attributed_share": 1.0 - self_s[OTHER] / total,
    })

    micro_seconds = micro.SECONDS_PER_METRIC * (QUICK_SCALE if quick else 1.0)
    values, micro_failures = micro.run_all(seed, micro_seconds, _obs_flood(seed, quick))
    metrics.update(values)
    reps.attempted += len(values)
    reps.failures.extend(micro_failures)

    result = reps.detail()
    result["trace"] = 1
    result["timings"] = {"untraced_wall_s": untraced_wall, "traced_wall_s": total}
    result["edges"] = tracer.edge_table()
    result["metrics"] = metrics
    return result
