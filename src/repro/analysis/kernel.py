"""The rule kernel: one family table, one shared-facts pass, one runner.

Every static analysis in this package is a *family* — a set of registry
rules plus one ``check(facts, selected) -> findings`` function in the
family's rules module.  The kernel owns everything around the checks,
once:

* :class:`Facts` is the only thing that traverses a tree: it parses and
  indexes every source a single time (:mod:`.parse`) and memoises what
  several families derive from it (the cross-module name index, taint
  call summaries, the hot set);
* :func:`run` selects rules from the one registry, registers every
  source's suppression markers once, calls each family's check, filters
  ``# repro: allow[...]`` suppressions once and sorts once;
* :func:`analyze` is the path-based convenience around both.

Adding a family is one :class:`Family` row here, its rules' rows in
:data:`repro.analysis.registry.RULES`, and its check function.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from pathlib import Path
from typing import Callable, Iterable

from . import flow, rules as lint_rules
from .engine import SYNTAX_ERROR_RULE, SuppressionTracker
from .findings import Finding
from .flow.core import FunctionSummary, build_summaries
from .layers import rules as layers_rules
from .memory import rules as memory_rules
from .parse import ModuleInfo, NameIndex, load_modules, parse_module
from .perf import rules as perf_rules
from .perf.hotpath import HotPaths, compute_hot_paths
from .races import effects as races_rules
from .registry import RULES, Rule, rules_in, select


class Facts:
    """What one run knows about the analysed tree.

    The sources are read, parsed and indexed exactly once, here; derived facts
    more than one family needs are computed on first use and shared.
    ``manifest`` substitutes a toy layer map for tests, and ``runtime``
    opts into the L006 import-isolation witness, which imports the
    *installed* ``repro`` pure core — meaningless when analysing a toy
    fixture tree.
    """

    def __init__(
        self,
        paths: Iterable[str | Path],
        *,
        manifest: dict[str, str] | None = None,
        runtime: bool = False,
    ):
        #: (path, source, error) for every file that failed to parse
        self.broken: list[tuple[str, str, SyntaxError]] = []
        self.modules: list[ModuleInfo] = load_modules(paths, self.broken)
        self.manifest = manifest
        self.runtime = runtime

    @classmethod
    def of_source(cls, source: str, path: str = "<string>") -> "Facts":
        """Facts about one in-memory source instead of a tree on disk."""
        facts = cls(())
        module = parse_module(path, source, facts.broken)
        facts.modules = [] if module is None else [module]
        return facts

    @functools.cached_property
    def index(self) -> NameIndex:
        """Cross-module callee resolution (flow taint, races R001)."""
        return NameIndex(self.modules)

    @functools.cached_property
    def summaries(self) -> dict[tuple[str, str], FunctionSummary]:
        """Fixpoint taint call summaries for every function."""
        return build_summaries(self.modules, self.index)

    @functools.cached_property
    def hot_paths(self) -> HotPaths:
        """The per-event hot set (perf rules, memory M001/M003)."""
        return compute_hot_paths(self.modules, self.index)


@dataclasses.dataclass(frozen=True, slots=True)
class Family:
    """One engine family: its name (``--<name>`` on the CLI), the registry
    labels it owns, its check function and its CLI help line."""

    name: str
    labels: tuple[str, ...]
    check: Callable[[Facts, frozenset[str]], list[Finding]]
    #: what ``--<name>`` adds; empty for the lint, which always runs
    flag_help: str = ""
    #: labels whose rules only a runtime monitor can fire — never noted as
    #: "ran" here, so their inline markers are not U001 in a static run
    runtime_only: tuple[str, ...] = ()

    @property
    def rules(self) -> list[Rule]:
        return rules_in(self.labels)


#: The family table, in ``--list-rules`` order.  Lint comes first and is
#: what a bare ``python -m repro.analysis`` runs.
FAMILIES: dict[str, Family] = {
    family.name: family
    for family in (
        Family("lint", ("lint", "hygiene"), lint_rules.check),
        Family(
            "flow",
            ("taint", "fsm"),
            flow.check,
            "also run the dataflow/FSM analyses (T/S rules) and the "
            "unused-suppression check (U001)",
        ),
        Family(
            "races",
            ("race-static", "race-runtime"),
            races_rules.check,
            "also run the static simultaneity-race rules (R001/R002) over "
            "__shared_state__ declarations and schedule sites",
            runtime_only=("race-runtime",),
        ),
        Family(
            "perf",
            ("perf",),
            perf_rules.check,
            "also run the hot-path cost rules (P001-P006) over schedule-site "
            "callbacks and Node.receive reachability",
        ),
        Family(
            "memory",
            ("memory", "memory-runtime"),
            memory_rules.check,
            "also run the state-exhaustion rules (M001-M005) over "
            "__state_bounds__ declarations, taint surfaces and the hot set",
        ),
        Family(
            "layers",
            ("layering", "layering-runtime"),
            layers_rules.check,
            "also run the transport-purity layering rules (L001-L006) "
            "over __layer__ declarations and the import-layering "
            "manifest, including the L006 import-isolation witness",
        ),
    )
}


def run(
    families: Iterable[str],
    facts: Facts,
    rule_ids: Iterable[str] | None = None,
    tracker: SuppressionTracker | None = None,
    *,
    timings: list[tuple[str, float]] | None = None,
) -> list[Finding]:
    """Run the named ``families`` over ``facts``; findings sorted by location.

    ``rule_ids`` narrows the run to those registry ids (``KeyError`` on an
    unknown one); a family none of whose rules are selected is skipped.
    Unparsable files are reported as E999 whichever families run.  Inline
    ``# repro: allow[...]`` markers filter the findings; pass a
    ``tracker`` to learn afterwards which markers suppressed nothing
    (U001).  ``timings`` collects ``(phase, seconds)`` per family.
    """
    selected = select(rule_ids)
    if tracker is None:
        tracker = SuppressionTracker()
    # analyzer wall-clock (host time) — measures the analysis itself, never
    # a simulation; calls go through the alias so each phase reads alike
    clock = time.perf_counter
    t0 = clock()
    for module in facts.modules:
        tracker.register_source(module.path, module.source)
    findings: list[Finding] = []
    for path, source, error in facts.broken:
        tracker.register_source(path, source)
        message = f"syntax error: {error.msg}"
        findings.append(
            Finding(path, error.lineno or 1, error.offset or 0, SYNTAX_ERROR_RULE, message)
        )
    if timings is not None:
        timings.append(("markers", clock() - t0))
    for name in families:
        family = FAMILIES[name]
        chosen = frozenset(rule.id for rule in family.rules) & selected
        if not chosen:
            continue
        t0 = clock()
        tracker.note_rules(
            rule_id
            for rule_id in chosen
            if RULES[rule_id].family not in family.runtime_only
        )
        findings.extend(family.check(facts, chosen))
        if timings is not None:
            timings.append((name, clock() - t0))
    kept = [finding for finding in findings if not tracker.is_suppressed(finding)]
    return sorted(kept, key=Finding.sort_key)


def analyze(
    paths: Iterable[str | Path],
    *,
    families: Iterable[str] = ("lint",),
    rule_ids: Iterable[str] | None = None,
    tracker: SuppressionTracker | None = None,
    manifest: dict[str, str] | None = None,
    runtime: bool = False,
) -> list[Finding]:
    """Parse everything under ``paths`` once and :func:`run` ``families``."""
    facts = Facts(paths, manifest=manifest, runtime=runtime)
    return run(families, facts, rule_ids, tracker)


def lint_source(
    source: str,
    path: str = "<string>",
    *,
    rule_ids: Iterable[str] | None = None,
    tracker: SuppressionTracker | None = None,
) -> list[Finding]:
    """The determinism lint over one source string (no file on disk)."""
    return run(("lint",), Facts.of_source(source, path), rule_ids, tracker)
