"""The flow family's check: T-rules over every function, S-rules per spec.

:func:`check` reads the shared parse, name index and call summaries off
the run's :class:`~repro.analysis.kernel.Facts`, runs the taint rules
over every function and the FSM rules over every module a spec targets.
Rule selection, suppression filtering and ordering are the kernel's.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING

from ..findings import Finding
from ..registry import rules_in
from .core import ModuleInfo
from .fsm import (
    check_conformance,
    check_isn_paths,
    check_model_walk,
    check_reachability,
    check_retry_escapes,
    check_syn_cookie_order,
    extract_fsm,
)
from .fsm_spec import TCP_SPEC, FsmSpec
from .taint import check_taint

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..kernel import Facts

_TAINT_RULES = frozenset(rule.id for rule in rules_in(("taint",)))
_FSM_RULES = frozenset(rule.id for rule in rules_in(("fsm",)))

#: Path suffix -> the FSM spec that module must conform to.
_SPEC_TARGETS: tuple[tuple[str, FsmSpec], ...] = (
    (str(Path("netsim") / "tcp.py"), TCP_SPEC),
)


def _spec_for(path: str) -> FsmSpec | None:
    for suffix, spec in _SPEC_TARGETS:
        if path.endswith(suffix):
            return spec
    return None


def _fsm_findings(
    module: ModuleInfo, spec: FsmSpec, selected: frozenset[str]
) -> list[Finding]:
    findings: list[Finding] = []
    extraction = extract_fsm(module.tree, module.path)
    if extraction is None:
        if "S002" in selected:
            findings.append(
                Finding(
                    path=module.path,
                    line=1,
                    col=0,
                    rule="S002",
                    message=(
                        f"expected the {spec.name} state machine here but "
                        "no state-enum assignments were found"
                    ),
                )
            )
        return findings
    if selected & {"S001", "S002"}:
        for finding in check_conformance(extraction, spec):
            if finding.rule in selected:
                findings.append(finding)
    if "S003" in selected:
        findings.extend(check_reachability(extraction, spec))
    if selected & {"S004", "S005"}:
        s005, verified = check_isn_paths(extraction, spec)
        if "S005" in selected:
            findings.extend(s005)
        if "S004" in selected:
            findings.extend(check_model_walk(extraction, spec, verified))
    if "S006" in selected:
        findings.extend(check_retry_escapes(extraction, spec))
    if "S007" in selected:
        findings.extend(check_syn_cookie_order(extraction))
    return findings


def check(facts: "Facts", selected: frozenset[str]) -> list[Finding]:
    """Findings of the selected flow rules over the run's modules."""
    findings: list[Finding] = []
    taint_selected = selected & _TAINT_RULES
    if taint_selected:
        findings.extend(
            check_taint(
                facts.modules, facts.summaries, facts.index, rules=taint_selected
            )
        )
    if selected & _FSM_RULES:
        for module in facts.modules:
            spec = _spec_for(module.path)
            if spec is not None:
                findings.extend(_fsm_findings(module, spec, selected))
    return findings
