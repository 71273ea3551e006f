"""``python -m repro.analysis [--flow] [--races] [--memory] [--layers] [paths...]``.

Runs the determinism lint and every flagged rule family from
:data:`repro.analysis.kernel.FAMILIES` over the given paths (default:
``src``): ``--flow`` adds the taint-dataflow analysis, ``--races`` the
static simultaneity rules R001/R002, ``--memory`` the state-exhaustion
rules M001–M005 over ``__state_bounds__`` declarations, and ``--layers``
the transport-purity layering rules L001–L006 over ``__layer__``
declarations and the import-layering manifest, including the L006
import-isolation witness; any of them also turns on suppression hygiene
(U001).  Each file is parsed exactly once and every family analyses the
same shared facts; ``--bench`` appends the analyzer wall-clock to a
dated trajectory file.  The exit code follows the ``--fail-on``
severity contract — by default any finding exits nonzero — so it slots
directly into CI and pre-commit.  ``--sarif`` additionally writes the
findings as a SARIF 2.1.0 document for code-scanning upload;
``--rules-md`` / ``--rules-md-check`` generate and drift-check the
README rule table.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .engine import SuppressionTracker
from .findings import Finding
from .kernel import FAMILIES, Facts, run
from .registry import RULES, rule_table, select, severity_of

#: Markers delimiting the generated rule table in README.md.
RULES_MD_BEGIN = "<!-- rules:begin (generated: python -m repro.analysis --rules-md) -->"
RULES_MD_END = "<!-- rules:end -->"


def rules_markdown() -> str:
    """The generated README rule table, including the guard markers."""
    lines = [
        RULES_MD_BEGIN,
        "| Rule | Family | Summary | Why |",
        "| --- | --- | --- | --- |",
    ]
    for rule_id in sorted(RULES):
        rule = RULES[rule_id]
        lines.append(
            f"| `{rule_id}` | {rule.family} | {rule.summary} | {rule.rationale} |"
        )
    lines.append(RULES_MD_END)
    return "\n".join(lines)


def _replace_rules_block(text: str, block: str) -> str | None:
    """``text`` with the marked block replaced, or None if markers missing."""
    begin = text.find(RULES_MD_BEGIN)
    end = text.find(RULES_MD_END)
    if begin == -1 or end == -1 or end < begin:
        return None
    return text[:begin] + block + text[end + len(RULES_MD_END):]


#: Severity ordering for the ``--fail-on`` exit-code contract.
_SEVERITY_RANK = {"note": 0, "warning": 1, "error": 2}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "Static analysis for the reproduction: a determinism lint "
            "(wall-clock reads, global randomness, unordered scheduling) "
            "plus, with --flow, taint dataflow over the guard and TCP "
            "trust boundaries."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to analyse (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--rules",
        default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    for family in FAMILIES.values():
        if family.flag_help:
            parser.add_argument(
                f"--{family.name}", action="store_true", help=family.flag_help
            )
    parser.add_argument(
        "--bench",
        metavar="FILE",
        default=None,
        help=(
            "append the analyzer wall-clock to FILE as a dated "
            "trajectory (scripts/BENCH_analysis.json in CI)"
        ),
    )
    parser.add_argument(
        "--fail-on",
        choices=("error", "warning", "note"),
        default="note",
        help=(
            "lowest severity that makes the exit code nonzero (default: "
            "note — any finding fails, the historical behaviour)"
        ),
    )
    parser.add_argument(
        "--sarif",
        metavar="OUT",
        default=None,
        help="write findings as SARIF 2.1.0 to OUT ('-' for stdout)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule table and exit",
    )
    parser.add_argument(
        "--rules-md",
        action="store_true",
        help="print the generated markdown rule table and exit",
    )
    parser.add_argument(
        "--rules-md-check",
        metavar="FILE",
        default=None,
        help="exit 1 if FILE's generated rule-table block is out of date",
    )
    parser.add_argument(
        "--rules-md-update",
        metavar="FILE",
        default=None,
        help="rewrite FILE's generated rule-table block in place and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        print("\n\n".join(rule_table(family.rules) for family in FAMILIES.values()))
        return 0
    if args.rules_md:
        print(rules_markdown())
        return 0
    if args.rules_md_check or args.rules_md_update:
        target = Path(args.rules_md_check or args.rules_md_update)
        try:
            text = target.read_text(encoding="utf-8")
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        updated = _replace_rules_block(text, rules_markdown())
        if updated is None:
            print(
                f"error: {target} has no {RULES_MD_BEGIN!r} block",
                file=sys.stderr,
            )
            return 2
        if args.rules_md_update:
            if updated != text:
                target.write_text(updated, encoding="utf-8")
            return 0
        if updated != text:
            print(
                f"{target}: rule table is out of date — run "
                "python -m repro.analysis --rules-md-update "
                f"{target}",
                file=sys.stderr,
            )
            return 1
        return 0

    rule_ids = None
    if args.rules:
        rule_ids = [part.strip() for part in args.rules.split(",") if part.strip()]
    try:
        selected = select(rule_ids)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    # a family without a flag (the lint) always runs; the others run when
    # flagged, or — asking for a family's rule implies running that engine —
    # when --rules names one of their ids
    families = [
        family.name
        for family in FAMILIES.values()
        if not family.flag_help
        or getattr(args, family.name)
        or (rule_ids is not None and any(r.id in selected for r in family.rules))
    ]

    timings: list[tuple[str, float]] = []
    # analyzer wall-clock (host time) — measures the CLI itself, never a
    # simulation; the call goes through the alias like the kernel's phases
    clock = time.perf_counter
    try:
        t0 = clock()
        # one parse shared by the lint and every rule family
        facts = Facts(args.paths, runtime=True)
        timings.append(("parse", clock() - t0))
        tracker = SuppressionTracker()
        findings = run(families, facts, rule_ids, tracker, timings=timings)
        if len(families) > 1:
            # suppression hygiene needs more than the lint's view of a marker
            findings.extend(tracker.unused_findings(RULES))
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.bench:
        from .bench import write_bench_analysis

        write_bench_analysis(args.bench, timings)

    findings.sort(key=Finding.sort_key)
    if args.sarif:
        from .sarif import to_sarif

        document = json.dumps(to_sarif(findings), indent=2)
        if args.sarif == "-":
            print(document)
        else:
            Path(args.sarif).write_text(document + "\n", encoding="utf-8")

    try:
        if args.format == "json":
            print(
                json.dumps(
                    {
                        "findings": [finding.to_dict() for finding in findings],
                        "count": len(findings),
                    },
                    indent=2,
                )
            )
        else:
            for finding in findings:
                print(finding.format_text())
            noun = "finding" if len(findings) == 1 else "findings"
            print(f"{len(findings)} {noun}")
    except BrokenPipeError:
        # reader (e.g. `| head`) closed the pipe — the verdict still stands
        sys.stderr.close()
    threshold = _SEVERITY_RANK[args.fail_on]
    failing = [f for f in findings if _SEVERITY_RANK[severity_of(f.rule)] >= threshold]
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
