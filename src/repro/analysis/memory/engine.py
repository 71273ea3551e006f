"""The memory family's check: the M-rules over ``__state_bounds__``.

:func:`check` takes the hot set off the run's shared
:class:`~repro.analysis.kernel.Facts` (so M001/M003 know which functions
run per attacker packet and which sweeps a scheduler actually reaches),
reads every module's ``__state_bounds__`` declaration and runs each
selected M-rule per module.  M006 is the runtime high-water monitor's
(:mod:`.runtime`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..findings import Finding
from .rules import MEMORY_CHECKS, build_view

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..kernel import Facts


def check(facts: "Facts", selected: frozenset[str]) -> list[Finding]:
    """Findings of the selected static memory rules over the run's modules."""
    hot_by_path: dict[str, set[str]] = {}
    for path, qualname in facts.hot_paths.functions:
        hot_by_path.setdefault(path, set()).add(qualname)

    findings: list[Finding] = []
    for module in facts.modules:
        view = build_view(module, frozenset(hot_by_path.get(module.path, ())))
        for rule_id, rule_check in MEMORY_CHECKS.items():
            if rule_id in selected:
                findings.extend(rule_check(view))
    return findings
