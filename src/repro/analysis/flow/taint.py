"""T-rules: taint findings over the dataflow core.

* **T001** — a guard admission sink reached with attacker-tainted data, or
  under attacker-tainted control, with no registered sanitizer dominating
  the program point.  This is the paper's §III invariant: nothing an
  off-path attacker forges may influence admission except through the
  cookie check.
* **T002** — cookie key material (``SEC``) flowing into an exposure sink:
  logs, ``print``, ``__repr__``/``__str__`` output, or the observability
  exporters.  Keys leave the process only via :meth:`export_state`
  persistence, never via telemetry.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from ..findings import Finding
from ..parse import ModuleInfo, NameIndex
from ..registry import rules_in
from .core import ATT, FunctionSummary, SinkEvent, TaintWalker

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..kernel import Facts


_TAINT_RULES = frozenset(rule.id for rule in rules_in(("taint",)))


def _check_events(
    module: ModuleInfo,
    summaries: dict[tuple[str, str], FunctionSummary],
    index: NameIndex,
) -> Iterator[tuple[str, SinkEvent]]:
    """Run the check-mode walker over every function; yield (qualname, event)."""
    for decl in module.functions.values():
        walker = TaintWalker(module, decl, summaries, index, "check")
        walker.run()
        for event in walker.events:
            yield decl.qualname, event


def check(facts: "Facts", selected: frozenset[str]) -> list[Finding]:
    """Findings of the selected T-rules over the run's modules."""
    rules = selected & _TAINT_RULES
    if not rules:
        return []
    findings: list[Finding] = []
    for module in facts.modules:
        trust = module.declared.trust
        for qualname, event in _check_events(module, facts.summaries, facts.index):
            if event.kind == "exposure" and "T002" in rules:
                findings.append(
                    Finding.at(
                        module.path,
                        event.node,
                        "T002",
                        f"cookie-key secret reaches exposure sink "
                        f"{event.sink!r} in {qualname}() — key material must "
                        "never flow into logs, reprs, or obs exporters",
                    )
                )
                continue
            if event.kind != "admission" or "T001" not in rules:
                continue
            # T001 is judged only at trust-boundary entry points: helper
            # bodies are covered through call summaries at those entries
            if not trust.is_entry_point(qualname):
                continue
            if event.sanitized:
                continue
            data_dep = ATT in event.data_tags
            ctrl_dep = ATT in event.ctx_tags
            if not (data_dep or ctrl_dep):
                continue
            dependence = (
                "data-dependent"
                if data_dep and not ctrl_dep
                else "control-dependent"
                if ctrl_dep and not data_dep
                else "data- and control-dependent"
            )
            scheme = f" [{trust.scheme}]" if trust.scheme else ""
            via = " (via call summary)" if event.via_summary else ""
            findings.append(
                Finding.at(
                    module.path,
                    event.node,
                    "T001",
                    f"admission sink {event.sink!r} in {qualname}(){scheme} is "
                    f"{dependence} on attacker-controlled input with no "
                    f"registered sanitizer dominating it{via} — route the "
                    "decision through a cookie verify / SYN-cookie validate / "
                    "ISN check, or suppress with a rationale",
                )
            )
    # the same call node can surface twice (direct sink + call summary);
    # one finding per (location, rule) is enough — keep the direct one
    unique: dict[tuple[str, int, int, str], Finding] = {}
    for finding in findings:
        unique.setdefault(
            (finding.path, finding.line, finding.col, finding.rule), finding
        )
    return list(unique.values())
