"""The perf family's check: the P-rules over every hot function.

:func:`check` takes the hot set (schedule-site callbacks and
``Node.receive`` reachability) off the run's shared
:class:`~repro.analysis.kernel.Facts` and runs each selected P-rule over
each hot function.  Accepted findings live in
``scripts/analysis_baseline.json`` and self-shrink through U001.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..findings import Finding
from .rules import PERF_CHECKS, PerfContext

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..kernel import Facts


def check(facts: "Facts", selected: frozenset[str]) -> list[Finding]:
    """Findings of the selected perf rules over the run's hot set."""
    ctx = PerfContext(facts.modules)
    findings: list[Finding] = []
    for entry in facts.hot_paths.functions.values():
        for rule_id, rule_check in PERF_CHECKS.items():
            if rule_id in selected:
                findings.extend(rule_check(ctx, entry))
    return findings
