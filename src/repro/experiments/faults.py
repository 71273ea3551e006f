"""Fault-injection suite: each fault scenario against all three schemes.

The paper argues the guard keeps *legitimate* clients served while spoofed
floods are dropped.  This experiment stresses the other half of that
promise — infrastructure faults rather than attacks: link blackouts and
flaps, bursty (Gilbert–Elliott) loss, wire chaos (duplication / reordering
/ corruption), a guard crash-and-restart with cookie-key rotation, and
failover of the protected ANS to a secondary server.

For every (scenario, scheme) cell a fresh testbed runs one legitimate LRS
loop; we report availability (completed / attempted iterations over the
measurement window), mean latency plus the latency added over the same
scheme's fault-free baseline, and the guard's false-reject count — packets
from the legitimate client the guard dropped as *invalid* (bad cookie /
bad label / bad SYN-cookie ACK).  Loss-induced timeouts are availability
failures, not false rejects; the false-reject column is the paper's
correctness claim and must stay 0, including across a guard restart that
rotates the cookie key (pre-crash cookies verify via the key-generation
bit).

All fault randomness draws from the ``"faults"`` child RNG stream, so a
scenario's faults never perturb the core event sequence and the whole
suite is bit-identical under ``--sanitize``.
"""

from __future__ import annotations

import dataclasses
from ipaddress import IPv4Network

from ..dns import AnsSimulator, LrsSimulator
from ..faults import (
    BurstyLoss,
    Corrupt,
    Duplicate,
    FaultPlan,
    GuardCrash,
    LinkDown,
    LinkFlap,
    Reorder,
    RouteFailover,
)
from ..netsim import Link, Node
from .calibration import ANS_LINK_DELAY
from .testbed import ANS_ADDRESS, GuardTestbed

SCHEMES = ("modified", "ns_name", "tcp")

SCENARIOS = (
    "baseline",
    "uplink-blackout",
    "uplink-flap",
    "bursty-loss",
    "wire-chaos",
    "guard-restart",
    "ans-failover",
)


@dataclasses.dataclass(slots=True)
class FaultCell:
    """One (scenario, scheme) measurement."""

    scenario: str
    scheme: str
    sent: int
    completed: int
    timeouts: int
    availability: float
    mean_latency_ms: float
    added_latency_ms: float
    false_rejects: int


@dataclasses.dataclass(slots=True)
class _Env:
    bed: GuardTestbed
    lrs: LrsSimulator
    uplink: Link
    ans2_link: Link


def _build(scheme: str, seed: int) -> _Env:
    """A fresh testbed for ``scheme`` with a hot-standby secondary ANS.

    The standby is built for every scenario (not just failover) so all
    cells of a scheme consume the seeded RNG identically.
    """
    ans_mode = "referral" if scheme == "ns_name" else "answer"
    if scheme == "modified":
        bed = GuardTestbed(seed=seed, ans="simulator", ans_mode=ans_mode)
        client = bed.add_client("lrs", via_local_guard=True)
        workload = "plain"
    elif scheme == "ns_name":
        bed = GuardTestbed(seed=seed, ans="simulator", ans_mode=ans_mode)
        client = bed.add_client("lrs")
        workload = "referral"
    elif scheme == "tcp":
        bed = GuardTestbed(seed=seed, ans="simulator", ans_mode=ans_mode, guard_policy="tcp")
        client = bed.add_client("lrs")
        workload = "plain"
    else:
        raise ValueError(f"unknown scheme {scheme!r}")

    lrs = LrsSimulator(client, ANS_ADDRESS, workload=workload, concurrency=4, timeout=0.02)
    lrs.record_latencies = True

    # The faulted segment is the client's path to the guard; behind a local
    # guard that is the outer (local-guard <-> remote-guard) link.
    if scheme == "modified":
        lg_node = client.links[0].other(client)
        uplink = next(link for link in lg_node.links if link.other(lg_node) is bed.guard_node)
    else:
        uplink = client.links[0]

    # Hot-standby ANS owning the same service address (VIP / anycast-style
    # failover): repointing the guard's route is the whole switchover.
    ans2_node = Node(bed.sim, "ans2")
    ans2_node.add_address(ANS_ADDRESS)
    ans2_link = Link(bed.sim, bed.guard_node, ans2_node, delay=ANS_LINK_DELAY)
    ans2_node.set_default_route(ans2_link)
    AnsSimulator(ans2_node, mode=ans_mode)

    return _Env(bed=bed, lrs=lrs, uplink=uplink, ans2_link=ans2_link)


def _plan_for(scenario: str, env: _Env, t0: float, window: float) -> FaultPlan:
    """The scenario's fault script, timed inside [t0, t0 + window]."""
    w = window
    plan = FaultPlan()
    if scenario == "baseline":
        pass
    elif scenario == "uplink-blackout":
        plan.add(t0 + 0.30 * w, LinkDown(env.uplink, duration=0.15 * w))
    elif scenario == "uplink-flap":
        plan.add(
            t0 + 0.25 * w,
            LinkFlap(env.uplink, down_for=0.03 * w, up_for=0.07 * w, count=3),
        )
    elif scenario == "bursty-loss":
        plan.add(
            t0 + 0.20 * w,
            BurstyLoss(
                env.uplink,
                duration=0.5 * w,
                p_good_to_bad=0.05,
                p_bad_to_good=0.3,
            ),
        )
    elif scenario == "wire-chaos":
        plan.add(t0 + 0.20 * w, Duplicate(env.uplink, 0.05, duration=0.5 * w))
        plan.add(
            t0 + 0.20 * w,
            Reorder(env.uplink, 0.10, extra_delay=0.002, duration=0.5 * w),
        )
        plan.add(t0 + 0.20 * w, Corrupt(env.uplink, 0.02, duration=0.5 * w))
    elif scenario == "guard-restart":
        plan.add(
            t0 + 0.30 * w,
            GuardCrash(env.bed.guard, downtime=0.05 * w, rotate_key=True),
        )
    elif scenario == "ans-failover":
        plan.add(t0 + 0.30 * w, LinkDown(env.bed.ans_link))
        plan.add(
            t0 + 0.35 * w,
            RouteFailover(env.bed.guard_node, IPv4Network(ANS_ADDRESS), env.ans2_link),
        )
    else:
        raise ValueError(f"unknown scenario {scenario!r}")
    return plan


def _false_rejects(env: _Env) -> int:
    return env.bed.guard.invalid_drops + env.bed.guard_node.tcp.cookie_failures


def _run_cell(
    scheme: str, scenario: str, *, seed: int, warmup: float, window: float
) -> FaultCell:
    env = _build(scheme, seed)
    _plan_for(scenario, env, warmup, window).schedule(env.bed.sim)
    env.lrs.start()
    env.bed.run(warmup)

    stats = env.lrs.stats
    completed0, timeouts0 = stats.completed, stats.timeouts
    latency_mark = len(env.lrs.latencies)
    rejects0 = _false_rejects(env)
    env.bed.run(window)
    env.lrs.stop()
    # drain in-flight iterations so every attempt resolves to ok/timeout
    env.bed.run(1.0)

    completed = stats.completed - completed0
    timeouts = stats.timeouts - timeouts0
    attempts = completed + timeouts
    window_latencies = env.lrs.latencies[latency_mark:]
    mean_latency = (
        sum(window_latencies) / len(window_latencies) if window_latencies else 0.0
    )
    return FaultCell(
        scenario=scenario,
        scheme=scheme,
        sent=attempts,
        completed=completed,
        timeouts=timeouts,
        availability=completed / attempts if attempts else 0.0,
        mean_latency_ms=mean_latency * 1000.0,
        added_latency_ms=0.0,  # filled in against the scheme baseline
        false_rejects=_false_rejects(env) - rejects0,
    )


def _windows(fast: bool) -> tuple[float, float]:
    return (0.15, 0.4) if fast else (0.25, 1.0)


def plan_cells(
    seed: int = 0,
    fast: bool = False,
    *,
    scenarios: tuple[str, ...] = SCENARIOS,
    schemes: tuple[str, ...] = SCHEMES,
    matrix: str = "faults",
) -> list:
    """The faults matrix as farm cells, in canonical (scenario, scheme) order.

    This is the single source of cell definitions: the serial experiment
    (:func:`run_faults`) and the sharded farm both expand the matrix here,
    so a cell's identity — and its derived per-cell seed — is the same
    whether it runs in-process, on shard k of n, or after a resume.
    """
    from ..farm.planner import expand

    return expand(
        matrix,
        [("scenario", scenarios), ("scheme", schemes)],
        base_seed=seed,
        fast=fast,
    )


def plan_smoke_cells(seed: int = 0, fast: bool = True) -> list:
    """The farm's ``smoke`` matrix: a 2 × 2 subset for CI equivalence gates,
    always planned with the fast windows whatever ``fast`` says."""
    return plan_cells(
        seed,
        fast=True,
        scenarios=("baseline", "uplink-blackout"),
        schemes=("modified", "ns_name"),
        matrix="smoke",
    )


def run_matrix_cell(params: dict[str, str], seed: int, fast: bool) -> dict:
    """Run one planned cell; the farm worker entry point for this matrix.

    ``added_latency_ms`` stays 0 here — it is a cross-cell quantity filled
    in by :func:`reduce_matrix` against the same scheme's baseline cell.
    """
    warmup, window = _windows(fast)
    cell = _run_cell(
        params["scheme"], params["scenario"], seed=seed, warmup=warmup, window=window
    )
    return dataclasses.asdict(cell)


def reduce_matrix(cells: list, results: list[dict]) -> list[FaultCell]:
    """Deterministic merge: results in canonical plan order -> FaultCells.

    Baseline cells come first in plan order, so each scheme's fault-free
    latency is known before any faulted cell of that scheme is reduced.
    """
    merged: list[FaultCell] = []
    baseline_latency: dict[str, float] = {}
    for result in results:
        cell = FaultCell(**result)
        if cell.scenario == "baseline":
            baseline_latency[cell.scheme] = cell.mean_latency_ms
        else:
            cell.added_latency_ms = cell.mean_latency_ms - baseline_latency[cell.scheme]
        merged.append(cell)
    return merged


def run_faults(seed: int = 0, *, fast: bool = False) -> list[FaultCell]:
    """Every scenario x scheme cell, serially, through the farm planner.

    Each cell runs under its own derived seed (see
    :func:`repro.farm.planner.derive_cell_seed`), so this serial loop and
    a sharded ``python -m repro farm --matrix faults --shards N`` produce
    byte-identical per-cell results.
    """
    cells = plan_cells(seed, fast=fast)
    results = [run_matrix_cell(cell.param_dict(), cell.seed, fast) for cell in cells]
    return reduce_matrix(cells, results)


def format_faults(cells: list[FaultCell]) -> str:
    lines = [
        "Fault injection: availability / latency / false rejects per scheme",
        f"{'scenario':<16} {'scheme':<9} {'sent':>6} {'ok':>6} {'avail%':>7} "
        f"{'lat ms':>7} {'+lat ms':>8} {'false-rej':>9}",
    ]
    previous = None
    for cell in cells:
        if previous is not None and cell.scenario != previous:
            lines.append("")
        previous = cell.scenario
        lines.append(
            f"{cell.scenario:<16} {cell.scheme:<9} {cell.sent:>6} {cell.completed:>6} "
            f"{cell.availability * 100:>7.2f} {cell.mean_latency_ms:>7.3f} "
            f"{cell.added_latency_ms:>+8.3f} {cell.false_rejects:>9}"
        )
    worst = min(cells, key=lambda c: c.availability)
    rejects = sum(c.false_rejects for c in cells)
    lines.append("")
    lines.append(
        f"worst availability: {worst.availability * 100:.2f}% "
        f"({worst.scenario} / {worst.scheme}); "
        f"total false rejects: {rejects}"
    )
    return "\n".join(lines)
