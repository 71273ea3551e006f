"""The races family's check: the static simultaneity rules R001/R002.

:func:`check` computes effect sets for every scheduled callback (R001)
and audits ``__shared_state__`` declarations (R002).  R003/R004 are
*runtime* rules: the registry knows them so the SARIF export, the README
rule table and ``--rules`` selection do, but their findings come from the
dynamic interference monitor (:mod:`.runtime`, ``python -m repro <cmd>
--races``), never from this function.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..findings import Finding
from .effects import check_declarations, check_write_overlaps, collect_schedule_sites

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..kernel import Facts


def check(facts: "Facts", selected: frozenset[str]) -> list[Finding]:
    """Findings of the selected static race rules over the run's modules."""
    findings: list[Finding] = []
    if "R001" in selected:
        sites, commutative = collect_schedule_sites(facts.modules, facts.index)
        findings.extend(check_write_overlaps(sites, commutative))
    if "R002" in selected:
        findings.extend(check_declarations(facts.modules))
    return findings
