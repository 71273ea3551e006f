"""S-rules: FSM extraction, conformance, and the seeded-mutation proofs."""

import functools
import textwrap
from pathlib import Path

from repro.analysis import analyze
from repro.analysis.flow.fsm import (
    check_conformance,
    check_isn_paths,
    check_model_walk,
    check_reachability,
    check_retry_escapes,
    check_syn_cookie_order,
    extract_fsm,
)
from repro.analysis.flow.fsm_spec import FsmSpec, Transition
from repro.analysis.parse import parse_module

#: the flow family through the one kernel entry point
analyze_paths = functools.partial(analyze, families=("flow",))

REPO_SRC = Path(__file__).resolve().parents[2] / "src"
TCP_PATH = REPO_SRC / "repro" / "netsim" / "tcp.py"

TOY_SOURCE = """
import enum


class S(enum.Enum):
    IDLE = 0
    WAIT = 1
    DONE = 2


class Machine:
    def __init__(self):
        self.state = S.IDLE
        self.isn = 7

    def start(self, msg):
        if self.state is S.IDLE:
            self.state = S.WAIT

    def finish(self, msg):
        if self.state is not S.WAIT:
            return
        if msg.ack == self.isn + 1:
            self.state = S.DONE
"""

TOY_SPEC = FsmSpec(
    name="toy",
    states=frozenset({"IDLE", "WAIT", "DONE"}),
    initial=frozenset({"IDLE"}),
    accepting="DONE",
    transitions=(
        Transition("IDLE", "WAIT", "start"),
        Transition("WAIT", "DONE", "finish", isn_checked=True),
    ),
)


def extract(source: str):
    extraction = extract_fsm(parse_module("toy.py", textwrap.dedent(source)))
    assert extraction is not None
    return extraction


class TestExtraction:
    def test_transitions_and_guards(self):
        extraction = extract(TOY_SOURCE)
        assert extraction.enum_name == "S"
        assert extraction.states == {"IDLE", "WAIT", "DONE"}
        by_method = {s.method: s for s in extraction.state_sets}
        assert set(by_method) == {"start", "finish"}  # __init__ excluded
        assert by_method["start"].guards == {"IDLE"}
        assert by_method["start"].dst == "WAIT"
        # the early-return `is not` guard constrains the remainder to WAIT
        assert by_method["finish"].guards == {"WAIT"}
        assert by_method["finish"].dst == "DONE"

    def test_module_without_fsm_yields_none(self):
        assert extract_fsm(parse_module("mod.py", "x = 1\n")) is None


class TestConformance:
    def test_conformant_toy_is_clean(self):
        extraction = extract(TOY_SOURCE)
        assert list(check_conformance(extraction, TOY_SPEC)) == []
        assert list(check_reachability(extraction, TOY_SPEC)) == []
        s005, verified = check_isn_paths(extraction, TOY_SPEC)
        assert s005 == []
        assert all(verified.values())
        assert list(check_model_walk(extraction, TOY_SPEC, verified)) == []

    def test_undeclared_transition_fires_s001(self):
        source = TOY_SOURCE + textwrap.dedent(
            """
            class Rogue(Machine):
                def shortcut(self, msg):
                    self.state = S.DONE
            """
        )
        findings = list(check_conformance(extract(source), TOY_SPEC))
        assert [f.rule for f in findings] == ["S001"]
        assert "shortcut" in findings[0].message

    def test_missing_implementation_fires_s002(self):
        spec = FsmSpec(
            name="toy",
            states=TOY_SPEC.states,
            initial=TOY_SPEC.initial,
            accepting="DONE",
            transitions=TOY_SPEC.transitions
            + (Transition("DONE", "IDLE", "reset"),),
        )
        findings = list(check_conformance(extract(TOY_SOURCE), spec))
        assert [f.rule for f in findings] == ["S002"]
        assert "reset" in findings[0].message

    def test_unreachable_state_fires_s003(self):
        spec = FsmSpec(
            name="toy",
            states=TOY_SPEC.states | {"ORPHAN"},
            initial=TOY_SPEC.initial,
            accepting="DONE",
            transitions=TOY_SPEC.transitions,
        )
        findings = list(check_reachability(extract(TOY_SOURCE), spec))
        assert [f.rule for f in findings] == ["S003"]
        assert "ORPHAN" in findings[0].message


class TestIsnVerification:
    def test_deleted_isn_check_fires_s005_and_s004(self):
        mutated = TOY_SOURCE.replace(
            "if msg.ack == self.isn + 1:", "if True:"
        )
        assert mutated != TOY_SOURCE
        extraction = extract(mutated)
        s005, verified = check_isn_paths(extraction, TOY_SPEC)
        assert [f.rule for f in s005] == ["S005"]
        assert verified[TOY_SPEC.transitions[1]] is False
        walk = list(check_model_walk(extraction, TOY_SPEC, verified))
        assert [f.rule for f in walk] == ["S004"]
        assert "IDLE -> WAIT -> DONE" in walk[0].message

    def test_domination_through_helper_call_path(self):
        source = TOY_SOURCE.replace(
            "        if msg.ack == self.isn + 1:\n"
            "            self.state = S.DONE\n",
            "        if msg.ack == self.isn + 1:\n"
            "            self._established()\n\n"
            "    def _established(self):\n"
            "        self.state = S.DONE\n",
        )
        assert "_established" in source
        spec = FsmSpec(
            name="toy",
            states=TOY_SPEC.states,
            initial=TOY_SPEC.initial,
            accepting="DONE",
            transitions=(
                Transition("IDLE", "WAIT", "start"),
                Transition("WAIT", "DONE", "_established", isn_checked=True),
            ),
        )
        s005, verified = check_isn_paths(extract(source), spec)
        assert s005 == []
        assert all(verified.values())


class TestRetryEscapes:
    def test_missing_handler_fires_s006(self):
        spec = FsmSpec(
            name="toy",
            states=TOY_SPEC.states,
            initial=TOY_SPEC.initial,
            accepting="DONE",
            transitions=TOY_SPEC.transitions,
            retry_states=frozenset({"WAIT"}),
        )
        findings = list(check_retry_escapes(extract(TOY_SOURCE), spec))
        assert [f.rule for f in findings] == ["S006"]
        assert "_on_retransmit" in findings[0].message


class TestSynCookieOrder:
    COOKIE_SOURCE = TOY_SOURCE + textwrap.dedent(
        """
        class Stack:
            def _process(self, segment, conn):
                if self.syn_cookies:
                    {guard}conn.handle(segment)
        """
    )

    def test_unvalidated_cookie_path_fires_s007(self):
        source = self.COOKIE_SOURCE.format(guard="")
        findings = list(check_syn_cookie_order(extract(source)))
        assert [f.rule for f in findings] == ["S007"]
        assert "handle()" in findings[0].message

    def test_validated_cookie_path_is_clean(self):
        source = self.COOKIE_SOURCE.format(
            guard="if segment.ack != (self.cookie_isn + 1):\n"
            "                return\n            "
        )
        assert list(check_syn_cookie_order(extract(source))) == []


class TestTcpAcceptanceMutations:
    """The real target: repro.netsim.tcp against TCP_SPEC, via the engine
    (which maps any path ending netsim/tcp.py onto the spec)."""

    @staticmethod
    def mutate(tmp_path: Path, old: str, new: str) -> Path:
        original = TCP_PATH.read_text(encoding="utf-8")
        mutated = original.replace(old, new)
        assert mutated != original, f"mutation target not found: {old!r}"
        target = tmp_path / "netsim" / "tcp.py"
        target.parent.mkdir()
        target.write_text(mutated, encoding="utf-8")
        return target

    def test_pristine_tcp_is_clean(self):
        assert analyze_paths([TCP_PATH]) == []

    def test_deleting_syn_cookie_validation_is_detected(self, tmp_path):
        self.mutate(
            tmp_path,
            "if segment.ack == (isn + 1) & 0xFFFFFFFF:",
            "if True:",
        )
        rules = {f.rule for f in analyze_paths([tmp_path])}
        # the stateless-path ISN edge is unverified (S005), the model walk
        # finds handshake paths with no verified edge (S004), and the
        # cookie region now feeds connections unvalidated (S007)
        assert {"S004", "S005", "S007"} <= rules

    def test_deleting_synrcvd_ack_check_is_detected(self, tmp_path):
        self.mutate(
            tmp_path,
            "if flags & ACK and segment.ack == (self.iss + 1) & 0xFFFFFFFF:",
            "if flags & ACK:",
        )
        rules = {f.rule for f in analyze_paths([tmp_path])}
        assert {"S004", "S005"} <= rules
