"""The five benchmark workloads: seeded simulated scenarios at frozen sizes.

Each workload mirrors one public experiment entry point
(``experiments.fig6.run_point``, ``table3.measure_scheme``,
``fig5.run_point``), rebuilt here from the same public calls in the same
order so that set-up (build the testbed, start the generators) and the
timed region (``bed.run(warmup)`` + ``bed.run(duration)``) can be timed
apart.  Every loop is a *simulated-time* loop: the attacker is open loop
at a fixed rate, the legitimate clients are closed loop with a fixed
number in flight, and the figure of merit is host seconds for a stated
simulated duration.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
from typing import Callable

from repro.attack import SpoofingAttacker
from repro.dns import LrsSimulator, TcpLoadClient
from repro.experiments import ANS_ADDRESS, FIG5_ACTIVATION_THRESHOLD, GuardTestbed
from repro.experiments.fig5 import LRS1_IP, LRS2_IP, LRS2_TCP_SEGMENT_COST

#: ``--quick`` multiplies every simulated duration by this.
QUICK_SCALE = 0.05

#: A simulated headline further than this from the paper's fails the run.
MAX_PAPER_REL_ERR = 0.15


@dataclasses.dataclass(frozen=True)
class Outputs:
    """What one repetition simulated — the input of every correctness check."""

    legit_rps: float
    legit_sent: int
    guard_cpu: float
    ans_cpu: float
    guard_stats: dict
    ans_stats: dict
    events: int
    #: next draw of the simulator's seeded RNG after the run: it pins the
    #: seed and how many draws the run made, which no counter above does
    rng_probe: float
    timed_events: int
    sim_seconds: float
    link_pkts: int
    cpu_drops: int

    def digest(self) -> str:
        """sha256 over the simulated outputs; equal iff two runs agree."""
        parts = [
            repr(self.legit_rps),
            repr(self.guard_cpu),
            repr(self.ans_cpu),
            repr(sorted(self.guard_stats.items())),
            repr(sorted(self.ans_stats.items())),
            repr(self.events),
            repr(self.rng_probe),
        ]
        return hashlib.sha256("\x00".join(parts).encode()).hexdigest()


class Scenario:
    """A built testbed with its generators started, ready for the timed run."""

    def __init__(self, bed: GuardTestbed, legit: list):
        self.bed = bed
        self.legit = legit

    def run(self, warmup: float, duration: float, on_slice=None, cuts=()) -> Outputs:
        """The timed region: simulate ``warmup`` then ``duration`` seconds.

        ``cuts`` are fractions of the whole simulated time at which the run
        pauses and calls ``on_slice()`` (also called at the end of each of
        the two phases); the runner times the slices and runs the host-speed
        kernel there.  Pausing does not change the event sequence, and the
        phase ends fall exactly where ``bed.run(warmup); bed.run(duration)``
        would put them.
        """
        bed = self.bed
        events0 = bed.sim.events_processed
        t_begin = bed.sim.now
        stops = [t_begin + cut * (warmup + duration) for cut in cuts]
        window_start = t_begin + warmup
        self._advance([t for t in stops if t < window_start], window_start, on_slice)
        for generator in self.legit:
            generator.stats.begin_window(window_start)
        guard_busy0 = bed.guard_node.cpu.completed_busy_seconds()
        ans_busy0 = bed.ans_node.cpu.completed_busy_seconds()
        end = window_start + duration
        self._advance([t for t in stops if window_start < t < end], end, on_slice)
        now = bed.sim.now
        nodes = _reachable_nodes(bed.guard_node)
        ans = bed.ans
        return Outputs(
            legit_rps=sum(g.stats.throughput(now) for g in self.legit),
            legit_sent=sum(g.stats.sent for g in self.legit),
            guard_cpu=bed.guard_node.cpu.utilization(guard_busy0, window_start),
            ans_cpu=bed.ans_node.cpu.utilization(ans_busy0, window_start),
            guard_stats=bed.guard.stats(),
            ans_stats=ans.stats() if hasattr(ans, "stats") else ans.stats_snapshot(),
            events=bed.sim.events_processed,
            rng_probe=bed.sim.rng.random(),
            timed_events=bed.sim.events_processed - events0,
            sim_seconds=now - t_begin,
            link_pkts=sum(
                link.stats(node)[0] for node in nodes for link in node.links
            ),
            cpu_drops=sum(node.cpu.jobs_dropped for node in nodes),
        )

    def _advance(self, stops: list[float], end: float, on_slice) -> None:
        sim = self.bed.sim
        for until in (*stops, end):
            sim.run(until=until)
            if on_slice is not None:
                on_slice()


def _reachable_nodes(start) -> list:
    """Every node of the testbed, walked over the links from ``start``."""
    seen = {id(start): start}
    frontier = [start]
    while frontier:
        node = frontier.pop()
        for link in node.links:
            peer = link.other(node)
            if id(peer) not in seen:
                seen[id(peer)] = peer
                frontier.append(peer)
    return list(seen.values())


def _flood(seed: int, protection: bool) -> Scenario:
    """``fig6.run_point(250_000, protection)`` up to its first ``bed.run``."""
    bed = GuardTestbed(
        seed=seed, ans="simulator", ans_mode="answer", guard_enabled=protection
    )
    legit_node = bed.add_client("legit", via_local_guard=True)
    lrs = LrsSimulator(legit_node, ANS_ADDRESS, workload="plain", concurrency=192)
    attacker = SpoofingAttacker(
        bed.add_client("attacker"), ANS_ADDRESS, rate=250_000, carry_invalid_cookie=True
    )
    attacker.start()
    lrs.start()
    return Scenario(bed, [lrs])


def _referral_miss(seed: int) -> Scenario:
    """``table3.measure_scheme("ns_name", cache=False)`` up to ``bed.measure``."""
    bed = GuardTestbed(seed=seed, ans="simulator", ans_mode="referral")
    lrs = LrsSimulator(
        bed.add_client("lrs"), ANS_ADDRESS, workload="referral",
        concurrency=192, cache_cookies=False,
    )
    lrs.start()
    return Scenario(bed, [lrs])


def _tcp_proxy(seed: int) -> Scenario:
    """``table3.measure_scheme("tcp", cache=False)`` up to ``bed.measure``."""
    bed = GuardTestbed(seed=seed, ans="simulator", ans_mode="answer", guard_policy="tcp")
    tcp = TcpLoadClient(bed.add_client("lrs"), ANS_ADDRESS, concurrency=50)
    tcp.start()
    return Scenario(bed, [tcp])


def _bind_mixed(seed: int) -> Scenario:
    """``fig5.run_point(14_000, True)`` up to its first ``bed.run``."""
    bed = GuardTestbed(
        seed=seed,
        ans="bind",
        answer_ttl=0,
        zone_origin="foo.com.",
        guard_enabled=True,
        guard_policy=lambda source: "tcp" if source == LRS2_IP else "dns",
        activation_threshold=FIG5_ACTIVATION_THRESHOLD,
    )
    lrs1_node = bed.add_client("lrs1", address=LRS1_IP)
    lrs2_node = bed.add_client("lrs2", address=LRS2_IP)
    lrs2_node.tcp.segment_cost_fn = lambda stack: LRS2_TCP_SEGMENT_COST
    lrs1 = LrsSimulator(
        lrs1_node, ANS_ADDRESS, workload="nonreferral",
        concurrency=64, timeout=2.0, target_rate=1000.0,
    )
    lrs2 = LrsSimulator(
        lrs2_node, ANS_ADDRESS, workload="plain",
        concurrency=64, timeout=2.0, target_rate=1000.0,
    )
    attacker = SpoofingAttacker(bed.add_client("attacker"), ANS_ADDRESS, rate=14_000)
    attacker.start()
    lrs1.start()
    lrs2.start()
    return Scenario(bed, [lrs1, lrs2])


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[int], Scenario]
    #: frozen simulated seconds: run-in, then the window the headline is read over
    warmup: float
    duration: float
    #: the paper's legitimate throughput (K req/s) for this scenario, and
    #: the scale its error is taken over (the paper value unless that is 0)
    paper_krps: float
    paper_scale: float
    #: guard enabled: the ANS must not serve more than legitimate clients sent
    guarded: bool = True

    def paper_rel_err(self, outputs: Outputs) -> float:
        return abs(outputs.legit_rps / 1000.0 - self.paper_krps) / self.paper_scale

    def check(self, outputs: Outputs, *, full_size: bool) -> list[str]:
        """Broken correctness checks for one repetition (empty = passed).

        The paper's value is only approached at the frozen durations, so a
        ``--quick`` run (``full_size`` false) is not held to it.
        """
        broken = []
        err = self.paper_rel_err(outputs)
        if full_size and err > MAX_PAPER_REL_ERR:
            broken.append(f"paper_rel_err {err:.3f} > {MAX_PAPER_REL_ERR}")
        if self.guarded:
            # the north-star safety property from public counters: what the
            # ANS served is covered by what legitimate clients sent, plus what
            # the guard let through before its activation threshold tripped
            served = outputs.ans_stats["requests_served"]
            allowed = outputs.legit_sent + outputs.guard_stats["forwarded_inactive"]
            if served > allowed:
                broken.append(f"ANS served {served} > {allowed} legitimately sent")
        return broken


WORKLOADS = (
    Workload(
        "flood_modified",
        "Fig 6 last point: modified-DNS guard under a 250K req/s invalid-cookie "
        "flood; the verify-and-drop path (guard decision, dnswire cookie, dispatch).",
        functools.partial(_flood, protection=True), warmup=0.05, duration=0.06, paper_krps=80.0, paper_scale=80.0,
    ),
    Workload(
        "flood_unguarded",
        "Same flood with the guard disabled: bare forwarding, guard and codec idle; "
        "the bypass control for guard/dnswire work and the target of dispatch work.",
        functools.partial(_flood, protection=False), warmup=0.1, duration=0.2, paper_krps=0.0, paper_scale=110.0,
        guarded=False,
    ),
    Workload(
        "referral_miss",
        "Table III NS-name scheme, cookie cache off, no attacker: every request mints "
        "a label cookie and builds a fabricated referral instead of verifying.",
        _referral_miss, warmup=0.04, duration=0.08, paper_krps=84.2, paper_scale=84.2,
    ),
    Workload(
        "tcp_proxy",
        "Table III TCP scheme: 50 concurrent DNS-over-TCP requests through TcpProxy; "
        "the only workload where netsim.tcp, dns.framing and guard.tcp_scheme work.",
        _tcp_proxy, warmup=0.05, duration=0.15, paper_krps=22.7, paper_scale=22.7,
    ),
    Workload(
        "bind_mixed",
        "Fig 5 knee: BIND ANS, activation threshold, 14K req/s plain spoofed flood from "
        "random sources; RL1 + TopRequesterTracker churn past the tracker's capacity.",
        _bind_mixed, warmup=0.3, duration=0.15, paper_krps=1.5, paper_scale=1.5,
    ),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}
