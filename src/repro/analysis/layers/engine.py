"""The layers family's check: the transport-purity L-rules.

:func:`check` resolves each module's layer from the import-layering
manifest (the run's toy manifest, else :data:`~.manifest.DEFAULT_MANIFEST`)
and runs the selected static L-rules.  The dynamic witness — L006,
importing the declared pure core with the platform layers blocked —
lives in :mod:`.runtime` and runs only when the run opts in
(``Facts(runtime=True)``, which the CLI's ``--layers`` does).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..findings import Finding
from .manifest import DEFAULT_MANIFEST
from .rules import (
    check_l001,
    check_l002,
    check_l003,
    check_l004,
    check_l005,
    classify_modules,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..kernel import Facts


def check(facts: "Facts", selected: frozenset[str]) -> list[Finding]:
    """Findings of the selected layering rules over the run's modules."""
    manifest = DEFAULT_MANIFEST if facts.manifest is None else facts.manifest
    layered = classify_modules(facts.modules, manifest)

    findings: list[Finding] = []
    if "L001" in selected:
        findings.extend(check_l001(layered, manifest))
    if "L002" in selected:
        findings.extend(check_l002(layered))
    if "L003" in selected:
        findings.extend(check_l003(layered))
    if "L004" in selected:
        findings.extend(check_l004(layered))
    if "L005" in selected:
        findings.extend(check_l005(layered, manifest))
    if facts.runtime and "L006" in selected:
        from .runtime import verify_import_isolation

        findings.extend(verify_import_isolation(manifest=manifest).findings)
    return findings
