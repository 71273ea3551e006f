"""The paper-fidelity ledger: its kinds, its one consumer, and its one home."""

import ast
import pathlib

import pytest

from repro.__main__ import ARTEFACTS, _resolve, main
from repro.experiments import expectations
from repro.experiments.ablation import HcfResult, IngressResult, RotationResult, SchemeComparison
from repro.experiments.attacks import (
    AmplificationResult,
    GuessingResult,
    ProbingResult,
    StarvationResult,
    ZombieResult,
)
from repro.experiments.containment import ContainmentResult, Sample
from repro.experiments.control import ControlResult
from repro.experiments.expectations import Expectation
from repro.experiments.fig5 import Fig5Point
from repro.experiments.fig6 import Fig6Point
from repro.experiments.fig7 import Fig7aPoint, Fig7bPoint
from repro.experiments.fluid import FluidModel
from repro.experiments.hybrid import FluidFlood, HybridPoint, PacketReference
from repro.experiments.sensitivity import run_sensitivity
from repro.experiments.table1 import Table1Row
from repro.experiments.table2 import LatencyRow
from repro.experiments.table3 import ThroughputRow
from repro.guard import GuardCosts

REPO = pathlib.Path(__file__).resolve().parents[2]


def row(kind, paper, tolerance=None, deviation=None):
    return Expectation("fluid", "knee", kind, paper, tolerance, "test", deviation)


class TestKinds:
    @pytest.mark.parametrize(
        "kind, paper, tolerance, passing, failing",
        [
            ("rel", 8, 0.25, (6, 8, 10), (5.99, 10.01)),
            ("rel", -8, 0.25, (-6, -10), (-5.99, -10.01)),
            ("abs", 6, 0.5, (5.5, 6, 6.5), (5.49, 6.51)),
            ("min", 3, None, (3, 3.01), (2.99,)),
            ("max", 3, None, (3, 2.99), (3.01,)),
            ("range", (12, 14), None, (12, 13, 14), (11.99, 14.01)),
            ("equals", "ANS side only", None, ("ANS side only",), ("LRS side",)),
            ("equals", True, None, (True,), (False,)),
        ],
    )
    def test_each_kind_at_and_either_side_of_its_boundary(
        self, kind, paper, tolerance, passing, failing
    ):
        expectation = row(kind, paper, tolerance)
        assert all(expectation.holds(value) for value in passing)
        assert not any(expectation.holds(value) for value in failing)

    def test_an_unknown_kind_is_an_error_not_a_pass(self):
        with pytest.raises(ValueError, match="unknown kind"):
            row("about", 1).holds(1)

    def test_derive_adds_only_the_shapes_its_operands_allow(self):
        cells = expectations.derive({"a": 6.0, "b": 4.0}, "a/b", "a-b", "a/c", "c-b")
        assert cells == {"a": 6.0, "b": 4.0, "a/b": 1.5, "a-b": 2.0}


class TestLedger:
    def test_one_paper_value_feeds_every_row_that_cites_it(self):
        assert expectations.paper("table3", "ns_name.miss") == expectations.paper(
            "fluid", "ns_name.miss"
        )
        tolerances = {
            r.artefact: r.tolerance
            for r in expectations.LEDGER
            if r.cell == "ns_name.miss" and r.paper == expectations.TABLE3_KRPS["ns_name"][0]
        }
        assert tolerances == {"table3": 0.2, "fluid": 0.15}

    def test_the_four_known_deviations_are_rows_with_reasons(self):
        deviations = {(r.artefact, r.cell) for r in expectations.LEDGER if r.deviation}
        assert deviations == {
            ("table3", "fabricated.miss"),
            ("table3", "modified.miss"),  # one reason, two cells: the cost model
            ("table1", "ns_name.amplification_bytes"),
            ("fig7", "a.throughput@6000"),
            ("fig5", "lrs1.scheme"),
        }

    def test_tcp_packet_count_has_one_row_that_states_its_unit(self):
        (tcp,) = (r for r in expectations.rows("table2") if r.cell.startswith("tcp.packets"))
        assert (tcp.kind, tcp.paper) == ("range", (12, 14))
        assert "segments" in tcp.source and "UDP" in tcp.source


def stub_results() -> dict[str, tuple]:
    """A result per ledger artefact at the report's sweep points: real for
    the closed forms, placeholder values for everything that simulates."""
    e = expectations
    probe = ProbingResult(true_y=1, identified=[1], rl2_enabled=False)
    starved = StarvationResult(
        guarded=False, attacker_bandwidth=1.0, victim_link_capacity=1.0,
        legit_sent=1, legit_delivered=1,
    )

    def hybrid(rate, on):
        return HybridPoint(rate, on, 1, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1)

    return {
        "calibration": ({"bind_udp": 1.0, "bind_tcp": 1.0, "ans_simulator": 1.0},),
        "table1": ([Table1Row(s, 1.0, 1.0, 1.0, 1, "x") for s in e.SCHEMES], (1, 1)),
        "table2": ([LatencyRow(s, 1.0, 1.0, 1.0, 1.0) for s in e.SCHEMES],),
        "table3": ([ThroughputRow(s, 1.0, 1.0) for s in e.SCHEMES],),
        "fig5": (
            [Fig5Point(r, on, 1.0, 1.0) for on in (True, False) for r in e.FIG5_ATTACK_RATES],
        ),
        "fig6": (
            [Fig6Point(r, on, 1.0, 1.0, 1.0) for on in (True, False)
             for r in e.FIG6_ATTACK_RATES],
        ),
        "hybrid": (
            [hybrid(r, on) for on in (True, False) for r in e.FIG6_ATTACK_RATES],
            hybrid(1.0, True), hybrid(1.0, False), PacketReference(1.0, 1.0, 1.0, 1),
        ),
        "fig7": (
            [Fig7aPoint(c, 1.0) for c in e.FIG7_CONCURRENCIES],
            [Fig7bPoint(r, 1.0) for r in e.FIG7_ATTACK_RATES],
        ),
        "fluid": (FluidModel(),),
        "attacks": (
            AmplificationResult(False, 1, 1), AmplificationResult(True, 1, 1),
            GuessingResult(1, 1, 1.0), ZombieResult(1.0, 1.0, 1.0),
            probe, probe, (starved, starved),
        ),
        "ablation": (
            HcfResult(1, 1, 0.1, 0.1), RotationResult(1, 1, 0), SchemeComparison(1.0, 1.0),
            [IngressResult(f, 1, 1) for f in e.INGRESS_FRACTIONS],
        ),
        "containment": (
            ContainmentResult(
                attack_start=0.5, attack_rate=1.0, threshold=1.0,
                throughput=[Sample(1.0, 1.0)], ans_cpu=[], baseline_throughput=1.0,
                recovery_time=0.1,
            ),
        ),
        "sensitivity": (run_sensitivity(),),
        "control": (ControlResult([], [], 0, 0, 0),),
    }


class TestCells:
    def test_every_row_names_a_cell_its_artefact_produces(self):
        stubs = stub_results()
        assert set(stubs) == set(expectations.CONFIGURATION)
        assert {r.artefact for r in expectations.LEDGER} == set(expectations.CONFIGURATION)
        for name, result in stubs.items():
            artefact = ARTEFACTS[name]
            assert artefact.run and artefact.render, name
            produced = _resolve(artefact.run.partition(":")[0] + ":cells")(*result)
            missing = [r.cell for r in expectations.rows(name) if r.cell not in produced]
            assert not missing, (name, missing)
            for r in expectations.rows(name):  # a mistyped kind or tolerance raises here
                r.holds(produced[r.cell])

    def test_a_cell_the_run_did_not_produce_fails_its_rows(self):
        table, failures = expectations.judge("control", {"adaptive_wins": 4})
        assert failures == len(expectations.rows("control")) - 1
        assert "| crash_reverts | 2 | missing | at least | FAIL |" in table


def report_on(artefact, monkeypatch, capsys, *ledger) -> tuple[int, str]:
    monkeypatch.setattr(expectations, "CONFIGURATION", {artefact: {}})
    if ledger:
        monkeypatch.setattr(expectations, "LEDGER", ledger)
    code = main(["report"])
    return code, capsys.readouterr().out


def failed_rows(out: str) -> set[str]:
    return {line.split("|")[1].strip() for line in out.splitlines() if "| FAIL |" in line}


class TestReport:
    def test_a_deviation_row_prints_but_never_fails_the_run(self, monkeypatch, capsys):
        reason = "the paper's knee is not ours"
        code, out = report_on(
            "fluid", monkeypatch, capsys, row("max", 1, deviation=reason), row("min", 1)
        )
        assert code == 0
        assert f"| knee | 1 | 201628 | at most | deviation | test | {reason} |" in out
        assert out.endswith("2 rows judged, 0 failed.\n")

    def test_a_failed_row_exits_1(self, monkeypatch, capsys):
        code, out = report_on("fluid", monkeypatch, capsys, row("max", 1))
        assert code == 1
        assert "| knee | 1 | 201628 | at most | FAIL | test |  |" in out
        assert out.endswith("1 rows judged, 1 failed.\n")

    def test_doubling_the_drop_cost_fails_the_fluid_rows_by_name(self, monkeypatch, capsys):
        drop = GuardCosts.drop_invalid.fget
        monkeypatch.setattr(
            GuardCosts, "drop_invalid", property(lambda costs: 2 * drop(costs))
        )
        code, out = report_on("fluid", monkeypatch, capsys)
        assert code == 1
        assert failed_rows(out) == {"knee", "legit@250K", "tcp_proxy.attack@250K"}

    def test_the_hybrid_rows_hold(self, monkeypatch, capsys):
        code, out = report_on("hybrid", monkeypatch, capsys)
        assert code == 0
        assert out.endswith(f"{len(expectations.rows('hybrid'))} rows judged, 0 failed.\n")
        assert out.count("| ok |") == len(expectations.rows("hybrid"))

    def test_a_flood_that_costs_nothing_fails_the_hybrid_rows_by_name(
        self, monkeypatch, capsys
    ):
        monkeypatch.setattr(FluidFlood, "_on_tick", lambda flood: None)
        code, out = report_on("hybrid", monkeypatch, capsys)
        assert code == 1
        assert failed_rows(out) == {
            # the guard no longer pays for dropping the flood...
            "on.guard_cpu@250K",
            "calib.guard_cpu-fluid.guard_cpu",
            "calib.guard_cpu-packet.guard_cpu",
            # ...and unguarded, the flood no longer takes the ANS from the bulk
            "off.legit@100K/off.legit@0K",
            "off.legit@200K",
            "calib.unprotected@100K/fluid.unprotected@100K",
            "calib.unprotected@100K/calib.offered",
        }

    def test_seed_overrides_every_configured_seed(self, monkeypatch, capsys):
        from repro.experiments import ablation

        seen = []
        monkeypatch.setattr(expectations, "CONFIGURATION", {"ablation": {"seed": 7}})
        monkeypatch.setattr(expectations, "LEDGER", ())
        monkeypatch.setattr(
            ablation, "run_ablation",
            lambda seed: seen.append(seed) or stub_results()["ablation"],
        )
        assert main(["report"]) == 0 and main(["report", "--seed", "3"]) == 0
        assert seen == [7, 3]
        assert "`ablation.run_ablation(seed=3)`" in capsys.readouterr().out


# -- one home ------------------------------------------------------------------

LEDGER_FILE = REPO / "src/repro/experiments/expectations.py"

#: Where no name may hold a paper value.  ``bench/`` and ``scripts/bench_*.py``
#: are left out on purpose: ``bench/`` is the frozen ruler — its
#: ``paper_krps`` anchors move only in a benchmark-only PR (ROADMAP item
#: 4(a)) — and ``scripts/bench_pairs.py`` only compares that field.
NAME_ROOTS = ("src/repro", "tests", "benchmarks")
#: Where no ``approx(<a ledger value>)`` literal may restate one.
LITERAL_ROOTS = ("tests/experiments", "tests/integration/test_packet_counts.py", "benchmarks")


def ledger_values() -> set[float]:
    values = set()
    for r in expectations.LEDGER:
        if r.kind in ("rel", "abs"):
            values |= {r.paper, r.paper * 1000}
    return values


def restatements(source: str, *, literals: bool) -> list[str]:
    """Names that hold a paper value, and ``approx(<ledger literal>)`` calls."""
    found = []
    values = ledger_values()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            targets = []
        for target in targets:
            for name in ast.walk(target):
                text = getattr(name, "id", None) or getattr(name, "attr", "")
                if text.lower().startswith("paper_"):
                    found.append((node.lineno, text))
        if (
            literals
            and isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", "")) == "approx"
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and type(node.args[0].value) in (int, float)
            and node.args[0].value in values
        ):
            found.append((node.lineno, f"approx({node.args[0].value})"))
    return [f"line {line}: {what}" for line, what in sorted(found)]


def python_files(roots) -> list[pathlib.Path]:
    files = []
    for root in roots:
        path = REPO / root
        files += [path] if path.is_file() else sorted(path.rglob("*.py"))
    return [f for f in files if f != LEDGER_FILE]


class TestOneHome:
    def test_no_paper_value_is_named_outside_the_ledger(self):
        for path in python_files(NAME_ROOTS):
            assert not restatements(path.read_text(encoding="utf-8"), literals=False), path

    def test_no_approx_literal_restates_a_ledger_value(self):
        for path in python_files(LITERAL_ROOTS):
            assert not restatements(path.read_text(encoding="utf-8"), literals=True), path

    def test_the_scan_fires_when_one_is_put_back(self):
        put_back = (
            "PAPER_KRPS = {'tcp': 22.7}\n"
            "class Row:\n"
            "    paper_miss_ms: float\n"
            "def test():\n"
            "    assert rate == pytest.approx(22_700, rel=0.05)\n"
            "    assert rtt == approx(0.0004)\n"
        )
        assert restatements(put_back, literals=True) == [
            "line 1: PAPER_KRPS",
            "line 3: paper_miss_ms",
            "line 5: approx(22700)",
        ]
