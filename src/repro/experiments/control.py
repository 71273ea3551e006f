"""Adaptive overload control vs. static schemes, across attacks × faults.

The paper's §IV.C contrast — an overloaded server dropping requests
blindly vs. a guard shedding *spoofed* load — is here pushed one step
further: a closed-loop :class:`~repro.control.GuardController` that
escalates the cheapest sufficient defence is raced against each static
scheme under every (attack mix × fault plan) cell.

Per cell one paced legitimate LRS runs against the guard while an
attacker floods it (or doesn't), optionally with a mid-window guard
crash-and-restart (key rotation included).  We report availability over
the measurement window, mean and added latency, and *measured* false
rejects: the guard marks the legitimate client's address as watched, so
every drop/shed/limit decision against it is counted directly instead of
being inferred from aggregate counters an attacker also inflates.

Guard CPU costs are uniformly inflated by :data:`COST_SCALE` so the
saturation knee sits at event rates a discrete-event run can afford
(tens of kilopackets/sec instead of hundreds); every scheme is measured
under the same scaled costs, so cross-scheme comparisons are unaffected.
"""

from __future__ import annotations

import dataclasses

from ..attack import SpoofingAttacker
from ..control import ControlConfig, GuardController
from ..dns import LrsSimulator
from ..faults import FaultPlan, GuardCrash
from ..guard import GuardCosts, UnverifiedResponseLimiter, VerifiedRequestLimiter
from .testbed import ANS_ADDRESS, GuardTestbed

#: The static-scheme cells (``--static-only``: no controller is constructed).
STATIC_SCHEMES = ("modified", "ns_name", "tcp")
SCHEMES = STATIC_SCHEMES + ("adaptive",)
ATTACKS = ("calm", "cookie-flood", "plain-flood")
FAULTS = ("none", "guard-crash")

#: Uniform inflation of the calibrated per-operation guard costs.
COST_SCALE = 16.0

#: Controller sweep cadence for the adaptive cells.
CONTROL_CADENCE = 0.05

#: Legitimate-client pacing (requests/sec, aggregate over its loops).
LEGIT_RATE = 400.0

#: Attack rates chosen to exceed the scaled guard's verification capacity
#: (~29K drops/sec) resp. its challenge-fabrication capacity (~11K/sec).
COOKIE_FLOOD_RATE = 40_000.0
PLAIN_FLOOD_RATE = 25_000.0


def _scaled_costs() -> GuardCosts:
    base = GuardCosts()
    return GuardCosts(
        per_packet=base.per_packet * COST_SCALE,
        cookie=base.cookie * COST_SCALE,
        fabricate=base.fabricate * COST_SCALE,
        rewrite=base.rewrite * COST_SCALE,
        tcp_segment=base.tcp_segment * COST_SCALE,
        tcp_conn_scan=base.tcp_conn_scan * COST_SCALE,
    )


@dataclasses.dataclass(slots=True)
class ControlCell:
    """One (attack, fault, scheme) measurement."""

    attack: str
    fault: str
    scheme: str
    sent: int
    completed: int
    timeouts: int
    availability: float
    mean_latency_ms: float
    added_latency_ms: float
    false_rejects: int
    cpu_utilization: float
    # adaptive-only controller telemetry (zeros for static schemes)
    ctrl_max_level: int = 0
    ctrl_escalations: int = 0
    ctrl_reverts: int = 0
    ctrl_failed: bool = False


@dataclasses.dataclass(slots=True)
class ControlResult:
    cells: list[ControlCell]
    #: (attack, fault) scenarios where adaptive availability matched or
    #: beat every static scheme (within half a point of the best static)
    adaptive_wins: list[tuple[str, str]]
    false_rejects_adaptive: int
    false_rejects_modified: int
    crash_reverts: int


@dataclasses.dataclass(slots=True)
class _Env:
    bed: GuardTestbed
    lrs: LrsSimulator
    attacker: SpoofingAttacker | None
    controller: GuardController | None


def _build(scheme: str, attack: str, seed: int) -> _Env:
    ans_mode = "referral" if scheme == "ns_name" else "answer"
    # static modified-DNS runs the strict posture: plain queries from
    # unverified sources are dropped at one verification's cost; the
    # adaptive cell *starts* from the cheap DNS-challenge posture and only
    # degrades toward "drop" under sustained overload
    policy = {"modified": "drop", "ns_name": "dns", "tcp": "tcp", "adaptive": "dns"}[
        scheme
    ]
    bed = GuardTestbed(
        seed=seed,
        ans="simulator",
        ans_mode=ans_mode,
        guard_policy=policy,
        guard_costs=_scaled_costs(),
        rl1=UnverifiedResponseLimiter(per_source_rate=1000.0, per_source_burst=2000.0),
        rl2=VerifiedRequestLimiter(per_host_rate=4000.0, per_host_burst=8000.0),
    )
    if scheme in ("modified", "adaptive"):
        client = bed.add_client("lrs", via_local_guard=True)
        workload = "plain"
    elif scheme == "ns_name":
        client = bed.add_client("lrs")
        workload = "referral"
    else:  # tcp
        client = bed.add_client("lrs")
        workload = "plain"
    bed.guard.watch_sources = frozenset({client.addresses[0]})
    lrs = LrsSimulator(
        client,
        ANS_ADDRESS,
        workload=workload,
        concurrency=4,
        timeout=0.1,
        target_rate=LEGIT_RATE,
    )
    lrs.record_latencies = True

    attacker = None
    if attack != "calm":
        attacker = SpoofingAttacker(
            bed.add_client("attacker"),
            ANS_ADDRESS,
            rate=COOKIE_FLOOD_RATE if attack == "cookie-flood" else PLAIN_FLOOD_RATE,
            carry_invalid_cookie=(attack == "cookie-flood"),
        )

    controller = None
    if scheme == "adaptive":
        controller = GuardController(
            bed.guard, config=ControlConfig(cadence=CONTROL_CADENCE)
        ).start()
    return _Env(bed=bed, lrs=lrs, attacker=attacker, controller=controller)


def _false_rejects(env: _Env) -> int:
    # watched_rejects counts only decisions against the known-legitimate
    # client; TCP SYN-cookie failures on the proxy can only come from it
    # too (the attackers here are UDP-only)
    return env.bed.guard.watched_rejects + env.bed.guard_node.tcp.cookie_failures


def _run_cell(
    scheme: str,
    attack: str,
    fault: str,
    *,
    seed: int,
    warmup: float,
    window: float,
) -> ControlCell:
    env = _build(scheme, attack, seed)
    sim = env.bed.sim
    if env.attacker is not None:
        # the attack ramps up during warmup so an adaptive cell enters the
        # measurement window already (mostly) escalated — the controller's
        # reaction time is visible in the containment-style experiments,
        # not hidden inside this matrix
        sim.schedule(0.4 * warmup, env.attacker.start)
    if fault == "guard-crash":
        plan = FaultPlan()
        # half a cadence off the controller's sweep grid, so crash instants
        # and control sweeps never share a tie group
        crash_at = warmup + 0.5 * window + 0.5 * CONTROL_CADENCE
        plan.add(
            crash_at,
            GuardCrash(env.bed.guard, downtime=0.05 * window, rotate_key=True),
        )
        plan.schedule(sim)
    elif fault != "none":
        raise ValueError(f"unknown fault {fault!r}")

    env.lrs.start()
    env.bed.run(warmup)

    stats = env.lrs.stats
    completed0, timeouts0 = stats.completed, stats.timeouts
    latency_mark = len(env.lrs.latencies)
    rejects0 = _false_rejects(env)
    busy0, t0 = env.bed.guard_node.cpu.completed_busy_seconds(), sim.now
    env.bed.run(window)
    utilization = env.bed.guard_node.cpu.utilization(busy0, t0)
    env.lrs.stop()
    if env.attacker is not None:
        env.attacker.stop()
    # drain in-flight iterations so every attempt resolves to ok/timeout
    env.bed.run(1.0)

    completed = stats.completed - completed0
    timeouts = stats.timeouts - timeouts0
    attempts = completed + timeouts
    window_latencies = env.lrs.latencies[latency_mark:]
    mean_latency = (
        sum(window_latencies) / len(window_latencies) if window_latencies else 0.0
    )
    cell = ControlCell(
        attack=attack,
        fault=fault,
        scheme=scheme,
        sent=attempts,
        completed=completed,
        timeouts=timeouts,
        availability=completed / attempts if attempts else 0.0,
        mean_latency_ms=mean_latency * 1000.0,
        added_latency_ms=0.0,  # filled in against the scheme's calm baseline
        false_rejects=_false_rejects(env) - rejects0,
        cpu_utilization=utilization,
    )
    if env.controller is not None:
        ctrl = env.controller
        cell.ctrl_max_level = max(
            (entry[2] for entry in ctrl.actions), default=ctrl.level
        )
        cell.ctrl_escalations = ctrl.escalations
        cell.ctrl_reverts = ctrl.reverts
        cell.ctrl_failed = ctrl.failed
    return cell


def run_control(
    seed: int = 0,
    *,
    fast: bool = False,
    static_only: bool = False,
    schemes: tuple[str, ...] | None = None,
) -> ControlResult:
    """The full matrix; calm/none first so added latency has a baseline.
    ``static_only`` leaves the adaptive scheme (and so the controller) out."""
    if schemes is None:
        schemes = STATIC_SCHEMES if static_only else SCHEMES
    warmup, window = (0.15, 0.4) if fast else (0.25, 1.0)
    attacks = ("calm", "cookie-flood") if fast else ATTACKS
    cells: list[ControlCell] = []
    baseline_latency: dict[str, float] = {}
    for attack in attacks:
        for fault in FAULTS:
            for scheme in schemes:
                cell = _run_cell(
                    scheme, attack, fault, seed=seed, warmup=warmup, window=window
                )
                if attack == "calm" and fault == "none":
                    baseline_latency[scheme] = cell.mean_latency_ms
                else:
                    cell.added_latency_ms = (
                        cell.mean_latency_ms - baseline_latency[scheme]
                    )
                cells.append(cell)

    adaptive_wins: list[tuple[str, str]] = []
    if "adaptive" in schemes:
        for attack in attacks:
            for fault in FAULTS:
                scenario = [
                    c for c in cells if c.attack == attack and c.fault == fault
                ]
                adaptive = next(c for c in scenario if c.scheme == "adaptive")
                best_static = max(
                    c.availability for c in scenario if c.scheme != "adaptive"
                )
                if adaptive.availability >= best_static - 0.005:
                    adaptive_wins.append((attack, fault))
    return ControlResult(
        cells=cells,
        adaptive_wins=adaptive_wins,
        false_rejects_adaptive=sum(
            c.false_rejects for c in cells if c.scheme == "adaptive"
        ),
        false_rejects_modified=sum(
            c.false_rejects for c in cells if c.scheme == "modified"
        ),
        crash_reverts=sum(
            c.ctrl_reverts for c in cells if c.fault == "guard-crash"
        ),
    )


def format_control(result: ControlResult) -> str:
    lines = [
        "Adaptive overload control vs static schemes "
        "(availability / latency / measured false rejects)",
        f"{'attack':<13} {'fault':<12} {'scheme':<9} {'sent':>5} {'ok':>5} "
        f"{'avail%':>7} {'lat ms':>7} {'+lat ms':>8} {'f-rej':>5} {'cpu%':>5} "
        f"{'ctrl':>12}",
    ]
    previous = None
    for cell in result.cells:
        group = (cell.attack, cell.fault)
        if previous is not None and group != previous:
            lines.append("")
        previous = group
        if cell.scheme == "adaptive":
            ctrl = f"L{cell.ctrl_max_level}/e{cell.ctrl_escalations}/r{cell.ctrl_reverts}"
            if cell.ctrl_failed:
                ctrl += "/FAILED"
        else:
            ctrl = "-"
        lines.append(
            f"{cell.attack:<13} {cell.fault:<12} {cell.scheme:<9} {cell.sent:>5} "
            f"{cell.completed:>5} {cell.availability * 100:>7.2f} "
            f"{cell.mean_latency_ms:>7.3f} {cell.added_latency_ms:>+8.3f} "
            f"{cell.false_rejects:>5} {cell.cpu_utilization * 100:>5.1f} {ctrl:>12}"
        )
    lines.append("")
    wins = ", ".join(f"{a}×{f}" for a, f in result.adaptive_wins) or "none"
    lines.append(
        f"adaptive matches-or-beats every static scheme in "
        f"{len(result.adaptive_wins)} scenario(s): {wins}"
    )
    lines.append(
        f"false rejects — adaptive: {result.false_rejects_adaptive}, "
        f"static modified-DNS: {result.false_rejects_modified}"
    )
    lines.append(
        f"controller safe-reverts across guard-crash cells: {result.crash_reverts}"
    )
    return "\n".join(lines)


def cells(result: ControlResult) -> dict[str, int]:
    return {
        "adaptive_wins": len(result.adaptive_wins),
        "false_rejects.adaptive": result.false_rejects_adaptive,
        "false_rejects.modified": result.false_rejects_modified,
        "crash_reverts": result.crash_reverts,
    }
