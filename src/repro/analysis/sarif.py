"""SARIF 2.1.0 export so CI code scanning can ingest the findings.

Only the stdlib ``json``-serialisable subset of SARIF is produced: one run,
one driver, a rule table, and one result per finding with a physical
location.  :func:`results_from_sarif` is the inverse for the subset we
emit — used by the round-trip tests and by tooling that wants to diff two
SARIF files structurally.
"""

from __future__ import annotations

from pathlib import PurePath
from typing import Iterable

from .findings import Finding
from .registry import RULES, severity_of

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"

_TOOL_NAME = "repro-analysis"
_TOOL_URI = "https://example.invalid/repro/analysis"  # repo-internal tool


def to_sarif(findings: Iterable[Finding], *, tool_version: str = "0") -> dict:
    """A SARIF 2.1.0 document (as a plain dict) for ``findings``."""
    findings = list(findings)
    # stable rule table: every registered rule, so the document is
    # self-describing even on a clean run (plus any unregistered finding id)
    rule_ids = sorted(set(RULES) | {f.rule for f in findings})
    rule_index = {rule_id: i for i, rule_id in enumerate(rule_ids)}
    rules = []
    for rule_id in rule_ids:
        rule = RULES.get(rule_id)
        rules.append(
            {
                "id": rule_id,
                "shortDescription": {"text": rule.summary if rule else rule_id},
                "fullDescription": {"text": rule.rationale if rule else ""},
                "defaultConfiguration": {"level": severity_of(rule_id)},
            }
        )
    results = []
    for finding in findings:
        results.append(
            {
                "ruleId": finding.rule,
                "ruleIndex": rule_index[finding.rule],
                "level": severity_of(finding.rule),
                "message": {"text": finding.message},
                "locations": [
                    {
                        "physicalLocation": {
                            "artifactLocation": {
                                "uri": PurePath(finding.path).as_posix(),
                                "uriBaseId": "SRCROOT",
                            },
                            "region": {
                                "startLine": max(finding.line, 1),
                                "startColumn": max(finding.col, 0) + 1,
                            },
                        }
                    }
                ],
            }
        )
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": _TOOL_NAME,
                        "informationUri": _TOOL_URI,
                        "version": tool_version,
                        "rules": rules,
                    }
                },
                "originalUriBaseIds": {"SRCROOT": {"uri": "file:///"}},
                "results": results,
            }
        ],
    }


def results_from_sarif(document: dict) -> list[Finding]:
    """Reconstruct :class:`Finding` objects from a document we emitted."""
    findings: list[Finding] = []
    for run in document.get("runs", []):
        for result in run.get("results", []):
            location = result["locations"][0]["physicalLocation"]
            region = location.get("region", {})
            findings.append(
                Finding(
                    path=location["artifactLocation"]["uri"],
                    line=int(region.get("startLine", 1)),
                    col=int(region.get("startColumn", 1)) - 1,
                    rule=str(result.get("ruleId", "")),
                    message=str(result.get("message", {}).get("text", "")),
                )
            )
    return sorted(findings, key=Finding.sort_key)
