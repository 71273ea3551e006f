"""File discovery and the inline-suppression bookkeeping every family shares.

Stdlib-only (``re`` + ``tokenize``); no third-party linter frameworks.
The checks live with their families; runs go through
:mod:`repro.analysis.kernel` (``analyze`` / ``lint_source``).

Suppression syntax
==================

Append ``# repro: allow[D002]`` (or ``allow[D002,W001]``) to the offending
line.  The marker suppresses only the listed rule ids, only on that line.
"""

from __future__ import annotations

import io
import re
import tokenize
from pathlib import Path
from typing import Iterable, Iterator

from .findings import Finding

#: Rule id used for files that fail to parse.
SYNTAX_ERROR_RULE = "E999"

_ALLOW_RE = re.compile(r"#\s*repro:\s*allow\[([A-Za-z0-9_\s,]+)\]")

#: Directory names never descended into during file discovery.
_SKIP_DIRS = {"__pycache__", ".git", ".venv", "build", "dist"}


def _add_marker(allowed: dict[int, set[str]], lineno: int, text: str) -> None:
    match = _ALLOW_RE.search(text)
    if match:
        rules = {part.strip() for part in match.group(1).split(",") if part.strip()}
        allowed.setdefault(lineno, set()).update(rules)


def suppressed_rules(source: str) -> dict[int, set[str]]:
    """Map of 1-based line number -> rule ids allowed on that line.

    Only markers in real ``#`` comment tokens count: a docstring that
    *mentions* the syntax must neither suppress findings on its line nor
    register as a marker for U001 hygiene.  Sources that cannot be
    tokenized (E999 files) fall back to a plain line scan.
    """
    allowed: dict[int, set[str]] = {}
    if "repro:" not in source:
        return allowed  # no marker can match; skip the tokenizer
    try:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type == tokenize.COMMENT:
                _add_marker(allowed, token.start[0], token.string)
    except (tokenize.TokenError, IndentationError, SyntaxError):
        allowed.clear()
        for lineno, line in enumerate(source.splitlines(), start=1):
            _add_marker(allowed, lineno, line)
    return allowed


#: Rule id for suppression hygiene: markers that suppress nothing.
UNUSED_SUPPRESSION_RULE = "U001"


class SuppressionTracker:
    """Marker bookkeeping shared across every rule family.

    Engines register each file's markers and report which rules they ran;
    every filtered finding marks its marker *used*.  Afterwards,
    :meth:`unused_findings` turns the leftovers into U001:

    * a marker naming a rule id no engine knows is always U001 (typos
      would otherwise suppress nothing, silently, forever);
    * a marker naming a rule that ran but suppressed nothing on its line
      is U001 — the hazard it documented is gone, so the rationale is now
      misinformation;
    * markers for rules that did *not* run this invocation are left alone
      (a lint-only run cannot judge a ``allow[T001]`` marker).
    """

    def __init__(self) -> None:
        self._markers: dict[tuple[str, int], set[str]] = {}
        self._used: set[tuple[str, int, str]] = set()
        #: every rule id some family reported running this invocation
        self.rules_run: set[str] = set()

    def register_source(self, path: str, source: str) -> None:
        for lineno, rules in suppressed_rules(source).items():
            self._markers.setdefault((path, lineno), set()).update(rules)

    def note_rules(self, rule_ids: Iterable[str]) -> None:
        self.rules_run.update(rule_ids)

    def is_suppressed(self, finding: Finding) -> bool:
        key = (finding.path, finding.line)
        if finding.rule in self._markers.get(key, ()):
            self._used.add((finding.path, finding.line, finding.rule))
            return True
        return False

    def unused_findings(self, known_rules: Iterable[str]) -> list[Finding]:
        known = set(known_rules) | {UNUSED_SUPPRESSION_RULE}
        findings: list[Finding] = []
        for (path, lineno), rules in sorted(self._markers.items()):
            if UNUSED_SUPPRESSION_RULE in rules:
                # an explicit allow[U001] opts the line out of hygiene
                continue
            for rule in sorted(rules):
                if rule not in known:
                    message = (
                        f"suppression marker names unknown rule id {rule!r} "
                        "— it can never match a finding; fix the id or "
                        "delete the marker"
                    )
                elif rule not in self.rules_run:
                    continue
                elif (path, lineno, rule) not in self._used:
                    message = (
                        f"unused suppression: {rule} did not fire on this "
                        "line — the hazard is gone, delete the marker"
                    )
                else:
                    continue
                findings.append(
                    Finding(
                        path=path,
                        line=lineno,
                        col=0,
                        rule=UNUSED_SUPPRESSION_RULE,
                        message=message,
                    )
                )
        return findings


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """Yield .py files under ``paths`` in sorted order, skipping junk dirs."""
    for raw in paths:
        path = Path(raw)
        if path.is_file():
            if path.suffix == ".py":
                yield path
            continue
        if not path.is_dir():
            raise FileNotFoundError(f"no such file or directory: {path}")
        for candidate in sorted(path.rglob("*.py")):
            parts = set(candidate.parts)
            if parts & _SKIP_DIRS or any(p.startswith(".") for p in candidate.parts):
                continue
            yield candidate
