"""The paper's numbers, once: every expectation the reproduction is held to.

One row of :data:`LEDGER` per claim — ``(artefact, cell, kind, paper value,
tolerance, source §, deviation)``: ``artefact`` is a ``python -m repro``
command, ``cell`` a key of that artefact module's ``cells(result)``.
``python -m repro report`` is the consumer: it runs each artefact once in
:data:`CONFIGURATION`, judges every row, and its stdout is REPORT.md.  Tests
and formatters take a paper value from :func:`paper`; nothing else in
``src/``, ``tests/`` or ``benchmarks/`` writes one down
(``tests/experiments/test_expectations.py`` holds that).

Kinds: ``rel`` (within ``tolerance`` × the paper value), ``abs`` (within
``tolerance``), ``min`` / ``max`` (an inclusive bound), ``range`` (``paper``
is an inclusive ``(low, high)``) and ``equals``.  A row with
``deviation="reason"`` states what the paper reports where this reproduction
knowingly differs: it prints with its reason and never fails the run; the
bound that still guards such a cell is a separate row.  A cell may have
several rows: the first is the paper's own statement of it (what
:func:`paper` returns), later ones are shape bounds.
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True, slots=True)
class Expectation:
    artefact: str
    cell: str
    kind: str
    paper: object
    tolerance: float | None
    source: str
    deviation: str | None = None

    def holds(self, measured) -> bool:
        if self.kind == "rel":
            return abs(measured - self.paper) <= self.tolerance * abs(self.paper)
        if self.kind == "abs":
            return abs(measured - self.paper) <= self.tolerance
        if self.kind == "min":
            return measured >= self.paper
        if self.kind == "max":
            return measured <= self.paper
        if self.kind == "range":
            return self.paper[0] <= measured <= self.paper[1]
        if self.kind == "equals":
            return measured == self.paper
        raise ValueError(f"{self.artefact}/{self.cell}: unknown kind {self.kind!r}")


# -- the paper's values that more than one row cites ----------------------------

SCHEMES = ("ns_name", "fabricated", "tcp", "modified")
UDP_SCHEMES = ("ns_name", "fabricated", "modified")

#: Table I / §III: (worst, best) request latency in round trips.
RTT_MULTIPLES = {"ns_name": (2, 1), "fabricated": (3, 1), "tcp": (3, 3), "modified": (2, 1)}
#: Table II: measured (miss, hit) latency in msec over the 10.9 ms path.
TABLE2_MS = {
    "ns_name": (21.0, 11.1), "fabricated": (32.1, 11.3), "tcp": (34.5, 33.7),
    "modified": (22.4, 10.8),
}
#: §IV.D: (miss, hit) UDP packets crossing the guard per request.
UDP_PACKETS = {"ns_name": (6, 4), "fabricated": (8, 4), "modified": (6, 4)}
#: Table III: (miss, hit) guard throughput in K requests/sec.
TABLE3_KRPS = {
    "ns_name": (84.2, 110.1), "fabricated": (60.1, 109.7), "tcp": (22.7, 22.7),
    "modified": (84.3, 110.3),
}
TCP_PROXY_RPS = TABLE3_KRPS["tcp"][0] * 1000
#: §IV.A: the ANS simulator's capacity (requests/sec).
ANS_SIMULATOR_RPS = 110_000
#: Figure 5: two legitimate LRSs at 1K req/s each.
FIG5_OFFERED_RPS = 2_000
#: Figure 6: the guard's CPU saturates near 200K attack; 80K legitimate
#: requests/sec are still delivered at 250K.
FIG6_KNEE_RPS = 200_000
FIG6_LEGIT_AT_250K_RPS = 80_000
#: Figure 7(b): the TCP proxy at 250K attack.
FIG7B_AT_250K_RPS = 10_000

#: The sweep points `report` runs, which are the points the rows below name.
FIG5_ATTACK_RATES = (0, 8_000, 12_000, 16_000)
FIG6_ATTACK_RATES = (0, 100_000, 200_000, 250_000)
FIG7_CONCURRENCIES = (20, 50, 1000, 6000)
FIG7_ATTACK_RATES = (0, 100_000, 250_000)
INGRESS_FRACTIONS = (0.0, 0.5, 0.9, 1.0)

#: The one configuration `report` runs each artefact in (keyword arguments
#: of its ``run``), in REPORT.md order.  An artefact that takes a seed runs
#: at ``seed`` here, else 0, unless ``report --seed`` overrides them all.
CONFIGURATION: dict[str, dict] = {
    "calibration": {},
    "table1": {},
    "table2": {},
    "table3": {"fast": True},
    "fig5": {"attack_rates": FIG5_ATTACK_RATES, "fast": True},
    "fig6": {"attack_rates": FIG6_ATTACK_RATES, "fast": True},
    "hybrid": {},
    "fig7": {"concurrencies": FIG7_CONCURRENCIES, "attack_rates": FIG7_ATTACK_RATES,
             "fast": True},
    "fluid": {},
    "attacks": {},
    "ablation": {"seed": 7},  # the documented HCF figure (7.8% of 500 clients) is seed 7's
    "containment": {},
    "sensitivity": {},
    "control": {"fast": True},
}

_CALIBRATED = (
    "absolute throughputs come from a calibrated CPU cost model tuned to the "
    "paper's anchors, not from its hardware; the comparative claims are measured"
)
E = Expectation

#: Figure 6's rows, written once: the ledger states them for ``fig6`` and
#: again, generated, for the ``hybrid`` artefact's fluid-bulk sweep.
_FIG6 = (
    E("fig6", "on.legit@250K", "min", FIG6_LEGIT_AT_250K_RPS, None, "Fig 6(a), abstract"),
    E("fig6", "on.legit@0K", "rel", ANS_SIMULATOR_RPS, 0.1, "Fig 6(a)"),
    E("fig6", "on.legit@100K", "rel", ANS_SIMULATOR_RPS, 0.1, "Fig 6(a)"),
    E("fig6", "on.legit@250K/on.legit@100K", "max", 1.0, None, "Fig 6(a)"),
    E("fig6", "on.legit@250K/fluid@250K", "rel", 1.0, 0.15, "fluid model"),
    # disabled: roughly linear decay, dead by the ANS's capacity
    E("fig6", "off.legit@0K", "rel", ANS_SIMULATOR_RPS, 0.1, "Fig 6(a)"),
    E("fig6", "off.legit@100K/off.legit@0K", "max", 0.5, None, "Fig 6(a)"),
    E("fig6", "off.legit@200K", "max", 5_000, None, "Fig 6(a)"),
    # guard CPU rises to saturation; checking costs more than forwarding
    E("fig6", "on.guard_cpu@100K-on.guard_cpu@0K", "min", 0, None, "Fig 6(b)"),
    E("fig6", "on.guard_cpu@250K", "min", 0.95, None, "Fig 6(b)"),
    E("fig6", "on.guard_cpu@100K-off.guard_cpu@100K", "min", 0, None, "Fig 6(b)"),
)

LEDGER: tuple[Expectation, ...] = (
    # -- calibration anchors --------------------------------------------------
    E("calibration", "bind_udp", "rel", 14_000, 0.05, "§IV.C"),
    E("calibration", "bind_tcp", "rel", 2_200, 0.05, "§IV.C"),
    E("calibration", "ans_simulator", "rel", ANS_SIMULATOR_RPS, 0.05, "§IV.A"),
    # -- Table I ----------------------------------------------------------------
    *(E("table1", f"{s}.worst_rtt", "rel", RTT_MULTIPLES[s][0], 0.15, "Table I") for s in SCHEMES),
    *(E("table1", f"{s}.best_rtt", "rel", RTT_MULTIPLES[s][1], 0.15, "Table I") for s in SCHEMES),
    E("table1", "ns_name.range_bits", "equals", 32, None, "Table I"),
    E("table1", "modified.range_bits", "equals", 128, None, "Table I"),
    E("table1", "ns_name.amplification_bytes", "max", 24, None, "Table I",
      "the fabricated NS label embeds the full original name (the paper embeds only "
      "the next label): ~11 more bytes, and restoration is correct for any depth"),
    E("table1", "ns_name.amplification_bytes", "range", (1, 40), None, "Table I (ours)"),
    E("table1", "tcp.amplification_bytes", "equals", 0, None, "Table I"),
    E("table1", "modified.amplification_bytes", "equals", 0, None, "Table I"),
    E("table1", "ns_name.deployment", "equals", "ANS side only", None, "Table I"),
    E("table1", "modified.deployment", "equals", "LRS side and ANS side", None, "Table I"),
    # "1 cookie per NS record" vs "2 cookies per non-referral record",
    # counted at a resolver after 10 names under one zone
    E("table1", "storage.ns_name", "equals", 2, None, "Table I"),
    E("table1", "storage.fabricated", "equals", 20, None, "Table I"),
    # -- Table II and the §IV.D packet counts ------------------------------------
    *(E("table2", f"{s}.miss", "rel", TABLE2_MS[s][0], 0.15, "Table II") for s in SCHEMES),
    *(E("table2", f"{s}.hit", "rel", TABLE2_MS[s][1], 0.15, "Table II") for s in SCHEMES),
    *(E("table2", f"{s}.miss/rtt", "rel", RTT_MULTIPLES[s][0], 0.15, "Table I") for s in SCHEMES),
    *(E("table2", f"{s}.hit/rtt", "rel", RTT_MULTIPLES[s][1], 0.15, "Table I") for s in SCHEMES),
    *(E("table2", f"{s}.packets.miss", "abs", UDP_PACKETS[s][0], 0.2, "§IV.D")
      for s in UDP_SCHEMES),
    *(E("table2", f"{s}.packets.hit", "abs", UDP_PACKETS[s][1], 0.2, "§IV.D")
      for s in UDP_SCHEMES),
    # the paper's "10 to 12 packets" per proxied request are TCP segments;
    # the count at the guard adds the two UDP packets of the guard<->ANS leg
    E("table2", "tcp.packets", "range", (12, 14), None, "§IV.D (10-12 segments + 2 UDP)"),
    # -- Table III -----------------------------------------------------------------
    *(E("table3", f"{s}.miss", "rel", TABLE3_KRPS[s][0], 0.15 if s == "tcp" else 0.2,
        "Table III") for s in SCHEMES),
    *(E("table3", f"{s}.hit", "rel", TABLE3_KRPS[s][1], 0.15 if s == "tcp" else 0.2,
        "Table III") for s in SCHEMES),
    *(E("table3", f"{s}.miss", "rel", TABLE3_KRPS[s][0], 0.1, "Table III", _CALIBRATED)
      for s in ("fabricated", "modified")),
    # cache hits are capped by the ANS simulator, not by the guard
    *(E("table3", f"{s}.hit", "rel", ANS_SIMULATOR_RPS / 1000, 0.1, "§IV.D")
      for s in UDP_SCHEMES),
    # ordering on misses: NS name ~ modified > fabricated > TCP
    E("table3", "ns_name.miss/modified.miss", "rel", 1.0, 0.15, "§IV.D"),
    E("table3", "ns_name.miss/fabricated.miss", "min", 1.15, None, "§IV.D"),
    E("table3", "fabricated.miss/tcp.miss", "min", 2, None, "§IV.D"),
    # -- Figure 5 --------------------------------------------------------------------
    E("fig5", "lrs1.scheme", "equals", "ns_name", None, "§IV.C",
      "BIND serves a non-referral zone here, so the UDP-cookie LRS exercises the "
      "fabricated NS/IP variant; the paper notes the other UDP schemes perform alike"),
    # disabled: fine until saturation, collapsed past ~12K attack
    E("fig5", "off.legit@0K", "rel", FIG5_OFFERED_RPS, 0.1, "Fig 5(a)"),
    E("fig5", "off.legit@8K", "rel", FIG5_OFFERED_RPS, 0.15, "Fig 5(a)"),
    E("fig5", "off.legit@16K", "max", 500, None, "Fig 5(a)"),
    E("fig5", "off.ans_cpu@8K-off.ans_cpu@0K", "min", 0, None, "Fig 5(b)"),
    E("fig5", "off.ans_cpu@12K", "min", 0.95, None, "Fig 5(b)"),
    E("fig5", "off.ans_cpu@16K", "min", 0.95, None, "Fig 5(b)"),
    # enabled: everything passes below the 14K threshold; above it the guard
    # filters the attack, the ANS's CPU falls back down and ~1.5K survive
    # (1K UDP + the TCP-redirected LRS capped near 0.5K)
    E("fig5", "on.legit@16K", "rel", 1_500, 0.2, "Fig 5(a)"),
    E("fig5", "on.ans_cpu@8K", "min", 0.5, None, "Fig 5(b)"),
    E("fig5", "on.ans_cpu@16K", "max", 0.3, None, "Fig 5(b)"),
    E("fig5", "on.ans_cpu@16K-on.ans_cpu@8K", "max", 0, None, "Fig 5(b)"),
    # -- Figure 6, and the same rows over the hybrid mode's fluid-bulk sweep -------------
    *_FIG6,
    *(dataclasses.replace(r, artefact="hybrid") for r in _FIG6),
    # the hybrid mode's fidelity bands on its calibration scenario (20K legitimate +
    # 60K spoofed fluids): against the closed forms (the fluids discretise at
    # hybrid.TICK) and against a packet run (which adds per-packet queueing)
    E("hybrid", "calib.guard_cpu-fluid.guard_cpu", "abs", 0, 0.05, "fluid model"),
    E("hybrid", "calib.ans_cpu-fluid.ans_cpu", "abs", 0, 0.05, "fluid model"),
    E("hybrid", "calib.served/fluid.served", "rel", 1.0, 0.05, "fluid model"),
    E("hybrid", "calib.availability", "abs", 1.0, 0.02, "fluid model"),
    E("hybrid", "calib.guard_cpu-packet.guard_cpu", "abs", 0, 0.08, "packet run"),
    E("hybrid", "calib.fg_availability-packet.fg_availability", "abs", 0, 0.05, "packet run"),
    # unprotected at 100K the flood eats the ANS; the closed form predicts what is left
    E("hybrid", "calib.unprotected@100K/fluid.unprotected@100K", "rel", 1.0, 0.08,
      "fluid model"),
    E("hybrid", "calib.unprotected@100K/calib.offered", "max", 0.75, None, "fluid model"),
    # what the mode buys: 10⁶ modeled clients per point in a few thousand events
    E("hybrid", "sweep.clients", "min", 1_000_000, None, "ours"),
    E("hybrid", "sweep.events", "max", 20_000, None, "ours"),
    E("hybrid", "on.legit@250K/sweep.offered", "max", 1.0, None, "ours"),
    E("hybrid", "calib.events/packet.events", "max", 1 / 3, None, "ours"),
    # -- Figure 7 --------------------------------------------------------------------
    E("fig7", "a.throughput@20", "rel", 22_000, 0.15, "Fig 7(a)"),
    E("fig7", "a.throughput@50", "rel", TCP_PROXY_RPS, 0.15, "Fig 7(a)"),
    E("fig7", "a.throughput@1000/a.throughput@50", "max", 1.0, None, "Fig 7(a)"),
    E("fig7", "a.throughput@6000", "rel", 11_000, 0.25, "Fig 7(a)",
      "retransmissions under CPU-queue drops add cost the paper's kernel proxy avoided; "
      "the degradation with open connections is the reproduced claim"),
    E("fig7", "a.throughput@6000", "min", 4_000, None, "Fig 7(a) (ours)"),
    E("fig7", "a.throughput@6000/a.throughput@50", "max", 0.6, None, "Fig 7(a)"),
    E("fig7", "b.throughput@0K", "rel", TCP_PROXY_RPS, 0.15, "Fig 7(b)"),
    E("fig7", "b.throughput@250K", "rel", FIG7B_AT_250K_RPS, 0.25, "Fig 7(b)"),
    E("fig7", "b.throughput@100K/b.throughput@0K", "max", 1.0, None, "Fig 7(b)"),
    E("fig7", "b.throughput@250K/b.throughput@100K", "max", 1.0, None, "Fig 7(b)"),
    # -- the fluid model against the same paper values --------------------------------
    *(E("fluid", f"{s}.miss", "rel", TABLE3_KRPS[s][0], 0.15, "Table III") for s in SCHEMES),
    *(E("fluid", f"{s}.hit", "rel", TABLE3_KRPS[s][1], 0.1, "Table III") for s in UDP_SCHEMES),
    # "between 3/2 (cookie computation) and 8/6 (packet processing)"
    E("fluid", "cost.fabricated.miss/cost.ns_name.miss", "range", (8 / 6, 3 / 2), None, "§IV.D"),
    E("fluid", "cost.ns_name.miss/cost.hit", "min", 1.0, None, "§IV.D"),
    E("fluid", "knee", "rel", FIG6_KNEE_RPS, 0.1, "Fig 6"),
    E("fluid", "legit@250K", "rel", FIG6_LEGIT_AT_250K_RPS, 0.2, "Fig 6(a)"),
    E("fluid", "unprotected@110K", "abs", 0, 1, "Fig 6(a)"),
    E("fluid", "tcp_proxy@50", "rel", TCP_PROXY_RPS, 0.1, "Fig 7(a)"),
    E("fluid", "tcp_proxy@6000/tcp_proxy@50", "max", 0.6, None, "Fig 7(a)"),
    E("fluid", "tcp_proxy.attack@250K", "rel", FIG7B_AT_250K_RPS, 0.25, "Fig 7(b)"),
    # -- §III.G attack analysis, §I starvation ----------------------------------------
    E("attacks", "amplification.unguarded", "min", 5.0, None, "§I (~10x)"),
    E("attacks", "amplification.guarded", "max", 1.0, None, "§III.G"),
    E("attacks", "guessing.observed/expected", "rel", 1.0, 0.01, "§III.G (1/R_y)"),
    E("attacks", "zombie.admitted/limiter_rate", "rel", 1.0, 0.25, "§III.G"),
    E("attacks", "zombie.admitted/offered", "max", 0.05, None, "§III.G"),
    # probe-while-flooding pinpoints y with the limiters open, learns
    # nothing with Rate-Limiter2 engaged
    E("attacks", "probing.open.succeeded", "equals", True, None, "§III.G"),
    E("attacks", "probing.limited.succeeded", "equals", False, None, "§III.G"),
    E("attacks", "probing.limited.identified", "equals", 0, None, "§III.G"),
    E("attacks", "starvation.attacker_bandwidth/victim_link", "max", 0.25, None, "§I"),
    E("attacks", "starvation.unguarded.delivery", "max", 0.85, None, "§I"),
    E("attacks", "starvation.guarded.delivery", "rel", 1.0, 1e-6, "§I"),
    # -- ablations -----------------------------------------------------------------------
    E("ablation", "hcf.false_negative_rate", "min", 0.02, None, "§II"),
    E("ablation", "hcf.cookie_false_negative_rate", "max", 1e-9, None, "§II"),
    E("ablation", "rotation.generation_bit_survivors/issued", "equals", 1.0, None, "§III.E"),
    E("ablation", "rotation.naive_survivors", "equals", 0, None, "§III.E"),
    E("ablation", "rfc7873/modified", "rel", 1.0, 0.1, "RFC 7873"),
    *(E("ablation", f"ingress.leak@{f:.0%}", "abs", 1.0 - f, 0.02, "§II")
      for f in INGRESS_FRACTIONS),
    # -- containment ---------------------------------------------------------------------
    E("containment", "baseline_throughput", "rel", ANS_SIMULATOR_RPS, 0.1, "§IV.A"),
    E("containment", "contained", "equals", True, None, "§I"),
    E("containment", "recovery_time", "max", 0.5, None, "§I"),
    E("containment", "tail.samples", "min", 1, None, "§I"),
    E("containment", "tail.min/baseline", "min", 0.9, None, "§I"),
    # -- sensitivity of the qualitative claims to the cost model ----------------------------
    E("sensitivity", "ordering_holds", "min", 0.9, None, "Table III"),
    E("sensitivity", "hits_beat_misses", "equals", 1.0, None, "Table III"),
    E("sensitivity", "min_protected_at_15x", "min", 30_000, None, "Fig 6(a)"),
    E("sensitivity", "median_knee_over_ans", "min", 1.0, None, "Fig 6"),
    E("sensitivity", "default.ordering_holds", "equals", True, None, "Table III"),
    E("sensitivity", "default.guard_keeps_up", "equals", True, None, "Fig 6"),
    E("sensitivity", "default.knee_over_ans", "rel", FIG6_KNEE_RPS / ANS_SIMULATOR_RPS, 0.09,
      "Fig 6"),
    # -- adaptive control (`--fast`: 2 attacks x 2 faults) ---------------------------------
    E("control", "adaptive_wins", "min", 3, None, "ours"),
    E("control", "false_rejects.adaptive", "equals", 0, None, "ours"),
    E("control", "false_rejects.modified", "equals", 0, None, "ours"),
    E("control", "crash_reverts", "min", 2, None, "ours"),
)


def rows(artefact: str) -> list[Expectation]:
    return [row for row in LEDGER if row.artefact == artefact]


def paper(artefact: str, cell: str):
    """The paper's value for ``cell``: the first ledger row that names it."""
    for row in LEDGER:
        if row.artefact == artefact and row.cell == cell:
            return row.paper
    raise KeyError(f"no ledger row for {artefact}/{cell}")


def derive(cells: dict, *names: str) -> dict:
    """Add the ``"a/b"`` and ``"a-b"`` cells whose two operands ``cells`` has
    (a sweep that skips a point skips the shapes that need it)."""
    for name in names:
        for op in "/-":
            a, found, b = name.partition(op)
            if found and a in cells and b in cells:
                cells[name] = cells[a] / cells[b] if op == "/" else cells[a] - cells[b]
    return cells


# -- rendering: one section of REPORT.md ------------------------------------

_TOLERANCE = {"min": "at least", "max": "at most", "range": "within", "equals": "exactly"}


def _text(value) -> str:
    if isinstance(value, tuple):
        return "–".join(_text(v) for v in value)
    if isinstance(value, float):
        return format(value, ".6g")
    return str(value)


def judge(artefact: str, cells: dict) -> tuple[str, int]:
    """``(markdown table of the artefact's rows, non-deviation failures)``."""
    lines = [
        "| cell | paper | measured | tolerance | verdict | source | deviation |",
        "|---|---|---|---|---|---|---|",
    ]
    failures = 0
    for row in rows(artefact):
        measured = cells.get(row.cell, "missing")
        if row.cell in cells and row.holds(measured):
            verdict = "ok"
        elif row.cell in cells and row.deviation:
            verdict = "deviation"  # a known one: printed with its reason, never fails
        else:
            verdict = "FAIL"  # as does any row whose cell the run did not produce
            failures += 1
        if row.kind == "rel":
            tolerance = f"±{_text(row.tolerance * 100)}%"
        elif row.kind == "abs":
            tolerance = f"±{_text(row.tolerance)}"
        else:
            tolerance = _TOLERANCE[row.kind]
        lines.append(
            f"| {row.cell} | {_text(row.paper)} | {_text(measured)} | {tolerance} | "
            f"{verdict} | {row.source} | {row.deviation or ''} |"
        )
    return "\n".join(lines), failures
