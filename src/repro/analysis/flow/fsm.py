"""S-rules: static FSM extraction and conformance against the declared spec.

The extractor walks a module's classes and records, with full branch
context (including the negated condition after an early-return ``if``):

* every ``self.state = <Enum>.<STATE>`` assignment — a transition, tagged
  with the guard states its enclosing conditions positively mention;
* every call site, so ISN-check dominance can be traced through helper
  methods (``_process -> _start_from_cookie -> _established``).

Checks (each one rule id):

* **S001** — transition implemented but not declared in the spec;
* **S002** — transition declared but not implemented;
* **S003** — spec state unreachable from the initial states;
* **S004** — a spec path into the accepting state that does not cross a
  *code-verified* ISN-checked edge (the exhaustive small-model walk);
* **S005** — an ``isn_checked`` edge whose implementation site is
  reachable through a call path with no dominating ISN comparison;
* **S006** — a retry-obligated state with no retransmit escape, or a
  retry handler with no budget-bounded abort;
* **S007** — a SYN-cookie region that creates or feeds a connection
  before the cookie ISN has been validated.
"""

from __future__ import annotations

import ast
import dataclasses
import itertools
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from ..findings import Finding
from ..parse import FunctionDecl, ModuleInfo, class_of, dotted_name
from ..registry import rules_in
from .core import terminates
from .fsm_spec import TCP_SPEC, FsmSpec, Transition

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..kernel import Facts


@dataclasses.dataclass(frozen=True, slots=True)
class Condition:
    """One enclosing branch condition with the polarity that holds."""

    expr: ast.expr
    polarity: bool


@dataclasses.dataclass(slots=True)
class StateSet:
    """A ``self.state = Enum.STATE`` assignment in context."""

    method: str
    dst: str
    guards: frozenset[str]
    conditions: tuple[Condition, ...]
    lineno: int
    col: int


@dataclasses.dataclass(slots=True)
class CallSite:
    """A call in context, indexed by bare callee name."""

    method: str
    callee: str
    guards: frozenset[str]
    conditions: tuple[Condition, ...]
    lineno: int
    col: int


@dataclasses.dataclass(slots=True)
class FsmExtraction:
    """The transition relation and call graph lifted from one module."""

    path: str
    enum_name: str
    states: frozenset[str]
    state_sets: list[StateSet]
    call_sites: dict[str, list[CallSite]]  # bare callee name -> sites
    methods: dict[str, FunctionDecl]  # bare method name -> first def


# -- extraction ----------------------------------------------------------------


def _find_state_enum(module: ModuleInfo) -> tuple[str, frozenset[str]] | None:
    """The enum assigned to ``self.state``, and its member names."""
    enum_name: str | None = None
    for node in module.nodes.of(ast.Assign):
        if (
            len(node.targets) == 1
            and isinstance(node.targets[0], ast.Attribute)
            and node.targets[0].attr == "state"
            and isinstance(node.value, ast.Attribute)
            and isinstance(node.value.value, ast.Name)
        ):
            enum_name = node.value.value.id
            break
    if enum_name is None:
        return None
    for node in module.tree.body:
        if isinstance(node, ast.ClassDef) and node.name == enum_name:
            members = frozenset(
                target.id
                for stmt in node.body
                if isinstance(stmt, ast.Assign)
                for target in stmt.targets
                if isinstance(target, ast.Name)
            )
            return enum_name, members
    return None


def extract_fsm(module: ModuleInfo) -> FsmExtraction | None:
    """Lift the transition relation from ``module``; None if no FSM found."""
    found = _find_state_enum(module)
    if found is None:
        return None
    enum_name, states = found
    extraction = FsmExtraction(
        path=module.path,
        enum_name=enum_name,
        states=states,
        state_sets=[],
        call_sites={},
        methods={},
    )
    for decl in module.defs:
        if class_of(decl.qualname) is None:
            continue
        extraction.methods.setdefault(decl.node.name, decl)
        if decl.node.name == "__init__":
            continue  # initial-state declaration, not a transition
        _walk_method(extraction, decl.node, enum_name, states)
    return extraction


def _walk_method(
    extraction: FsmExtraction,
    method: ast.FunctionDef | ast.AsyncFunctionDef,
    enum_name: str,
    states: frozenset[str],
) -> None:
    def record(node: ast.AST, conds: tuple[Condition, ...]) -> None:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Attribute)
            and node.targets[0].attr == "state"
            and isinstance(node.value, ast.Attribute)
            and isinstance(node.value.value, ast.Name)
            and node.value.value.id == enum_name
            and node.value.attr in states
        ):
            extraction.state_sets.append(
                StateSet(
                    method=method.name,
                    dst=node.value.attr,
                    guards=_guard_states(conds, enum_name, states),
                    conditions=conds,
                    lineno=node.lineno,
                    col=node.col_offset,
                )
            )
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if name:
                bare = name.rsplit(".", 1)[-1]
                extraction.call_sites.setdefault(bare, []).append(
                    CallSite(
                        method=method.name,
                        callee=bare,
                        guards=_guard_states(conds, enum_name, states),
                        conditions=conds,
                        lineno=node.lineno,
                        col=node.col_offset,
                    )
                )

    def visit_expr(node: ast.expr, conds: tuple[Condition, ...]) -> None:
        for sub in ast.walk(node):
            record(sub, conds)

    def block(stmts: list[ast.stmt], conds: tuple[Condition, ...]) -> None:
        for i, stmt in enumerate(stmts):
            if isinstance(stmt, ast.If):
                visit_expr(stmt.test, conds)
                block(stmt.body, conds + (Condition(stmt.test, True),))
                if stmt.orelse:
                    block(stmt.orelse, conds + (Condition(stmt.test, False),))
                body_ends = terminates(stmt.body)
                else_ends = bool(stmt.orelse) and terminates(stmt.orelse)
                if body_ends and not else_ends:
                    conds = conds + (Condition(stmt.test, False),)
                elif else_ends and not body_ends:
                    conds = conds + (Condition(stmt.test, True),)
            elif isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
                test = stmt.test if isinstance(stmt, ast.While) else stmt.iter
                visit_expr(test, conds)
                block(stmt.body, conds)
                block(stmt.orelse, conds)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    visit_expr(item.context_expr, conds)
                block(stmt.body, conds)
            elif isinstance(stmt, ast.Try):
                block(stmt.body, conds)
                for handler in stmt.handlers:
                    block(handler.body, conds)
                block(stmt.orelse, conds)
                block(stmt.finalbody, conds)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                block(stmt.body, conds)
            else:
                record(stmt, conds)
                for sub in ast.walk(stmt):
                    if sub is not stmt:
                        record(sub, conds)

    block(method.body, ())


def _guard_states(
    conds: tuple[Condition, ...], enum_name: str, states: frozenset[str]
) -> frozenset[str]:
    """States the conditions positively constrain ``self.state`` to."""
    guards: set[str] = set()
    for cond in conds:
        for node in ast.walk(cond.expr):
            if not (isinstance(node, ast.Compare) and len(node.ops) == 1):
                continue
            op = node.ops[0]
            positive_op = isinstance(op, (ast.Is, ast.Eq, ast.In))
            negative_op = isinstance(op, (ast.IsNot, ast.NotEq, ast.NotIn))
            if not (positive_op or negative_op):
                continue
            effective = cond.polarity if positive_op else not cond.polarity
            if not effective:
                continue
            for operand in (node.left, node.comparators[0]):
                for sub in ast.walk(operand):
                    if (
                        isinstance(sub, ast.Attribute)
                        and isinstance(sub.value, ast.Name)
                        and sub.value.id == enum_name
                        and sub.attr in states
                    ):
                        guards.add(sub.attr)
    return frozenset(guards)


# -- ISN / flag condition predicates -------------------------------------------


def _identifiers(node: ast.expr) -> set[str]:
    names: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def _is_isn_compare(node: ast.Compare) -> bool:
    if len(node.ops) != 1 or not isinstance(node.ops[0], (ast.Eq, ast.NotEq)):
        return False
    sides = [_identifiers(node.left), _identifiers(node.comparators[0])]
    def mentions_ack(ids: set[str]) -> bool:
        return any("ack" in name.lower() for name in ids)
    def mentions_isn(ids: set[str]) -> bool:
        return any(
            "iss" in name.lower() or "isn" in name.lower() or "cookie" in name.lower()
            for name in ids
        )
    return (mentions_ack(sides[0]) and mentions_isn(sides[1])) or (
        mentions_ack(sides[1]) and mentions_isn(sides[0])
    )


def _test_has_isn(expr: ast.expr, polarity: bool) -> bool:
    """Whether holding ``expr == polarity`` implies an ISN check passed."""
    if isinstance(expr, ast.UnaryOp) and isinstance(expr.op, ast.Not):
        return _test_has_isn(expr.operand, not polarity)
    if isinstance(expr, ast.BoolOp):
        if isinstance(expr.op, ast.And) and polarity:
            return any(_test_has_isn(v, True) for v in expr.values)
        if isinstance(expr.op, ast.Or) and not polarity:
            return any(_test_has_isn(v, False) for v in expr.values)
        return False
    if isinstance(expr, ast.Compare) and _is_isn_compare(expr):
        is_eq = isinstance(expr.ops[0], ast.Eq)
        return is_eq == polarity
    return False


def _isn_dominated(conds: tuple[Condition, ...]) -> bool:
    return any(_test_has_isn(c.expr, c.polarity) for c in conds)


def _mentions_flag(expr: ast.expr, flag: str, polarity: bool) -> bool:
    """Whether ``expr == polarity`` implies attribute ``flag`` is truthy."""
    if isinstance(expr, ast.UnaryOp) and isinstance(expr.op, ast.Not):
        return _mentions_flag(expr.operand, flag, not polarity)
    if isinstance(expr, ast.BoolOp):
        if isinstance(expr.op, ast.And) and polarity:
            return any(_mentions_flag(v, flag, True) for v in expr.values)
        if isinstance(expr.op, ast.Or) and not polarity:
            return any(_mentions_flag(v, flag, False) for v in expr.values)
        return False
    if isinstance(expr, ast.Attribute) and expr.attr == flag:
        return polarity
    return False


# -- conformance checks ---------------------------------------------------------


def _matches(spec_t: Transition, state_set: StateSet) -> bool:
    if spec_t.dst != state_set.dst:
        return False
    if spec_t.event != "*" and spec_t.event != state_set.method:
        return False
    if spec_t.src == "*" or not state_set.guards:
        return True
    return spec_t.src in state_set.guards


def check_conformance(extraction: FsmExtraction, spec: FsmSpec) -> Iterator[Finding]:
    """S001 (undeclared) and S002 (unimplemented) transitions."""
    for state_set in extraction.state_sets:
        if not any(_matches(t, state_set) for t in spec.transitions):
            guards = ",".join(sorted(state_set.guards)) or "*"
            yield Finding(
                extraction.path,
                state_set.lineno,
                state_set.col,
                "S001",
                f"transition {{{guards}}} -> {state_set.dst} in "
                f"{state_set.method}() is not declared in the {spec.name} FSM "
                "spec — declare it (and its security obligations) or remove it",
            )
    for spec_t in spec.transitions:
        if not any(_matches(spec_t, s) for s in extraction.state_sets):
            yield Finding(
                extraction.path,
                1,
                0,
                "S002",
                f"declared transition {spec_t.src} -> {spec_t.dst} via "
                f"{spec_t.event}() has no implementation — the state machine "
                "lost an edge the spec (and the paper's protocol) requires",
            )


def check_reachability(extraction: FsmExtraction, spec: FsmSpec) -> Iterator[Finding]:
    """S003: spec states unreachable from the initial states."""
    reachable = set(spec.initial)
    frontier = list(spec.initial)
    while frontier:
        state = frontier.pop()
        for t in spec.edges_from(state):
            if t.dst not in reachable:
                reachable.add(t.dst)
                frontier.append(t.dst)
    for state in sorted(spec.states - spec.virtual_states - reachable):
        yield Finding(
            extraction.path,
            1,
            0,
            "S003",
            f"state {state} is unreachable from the initial states in the "
            f"{spec.name} FSM — dead protocol state or missing transition",
        )


def _site_isn_ok(
    extraction: FsmExtraction,
    site: CallSite,
    memo: dict[str, bool],
    in_progress: set[str],
) -> bool:
    if _isn_dominated(site.conditions):
        return True
    return _method_isn_ok(extraction, site.method, memo, in_progress)


def _method_isn_ok(
    extraction: FsmExtraction,
    method: str,
    memo: dict[str, bool],
    in_progress: set[str],
) -> bool:
    """True iff every call path into ``method`` crosses an ISN check."""
    if method in memo:
        return memo[method]
    if method in in_progress:
        return False  # cycle: cannot prove domination
    sites = extraction.call_sites.get(method, [])
    if not sites:
        memo[method] = False  # external entry: nothing dominates it
        return False
    in_progress.add(method)
    ok = all(_site_isn_ok(extraction, s, memo, in_progress) for s in sites)
    in_progress.discard(method)
    memo[method] = ok
    return ok


def check_isn_paths(
    extraction: FsmExtraction, spec: FsmSpec
) -> tuple[list[Finding], dict[Transition, bool]]:
    """S005 per unverified call path, plus the verified-label map for S004."""
    findings: list[Finding] = []
    verified: dict[Transition, bool] = {}
    isn_edges = [t for t in spec.transitions if t.isn_checked]
    memo: dict[str, bool] = {}
    for edge in isn_edges:
        verified[edge] = True
    for event in sorted({t.event for t in isn_edges}):
        sets = [s for s in extraction.state_sets if s.method == event]
        # the transition's code site(s): the lexical assignment, judged by
        # its own context or — when clean — by every call path leading in
        failing: list[tuple[StateSet | CallSite, frozenset[str]]] = []
        for state_set in sets:
            if _isn_dominated(state_set.conditions):
                continue
            sites = extraction.call_sites.get(event, [])
            if not sites:
                failing.append((state_set, state_set.guards))
                continue
            for site in sites:
                if not _site_isn_ok(extraction, site, memo, set()):
                    failing.append((site, site.guards))
        for offender, guards in failing:
            where = (
                f"call path via {offender.method}()"
                if isinstance(offender, CallSite)
                else f"assignment in {offender.method}()"
            )
            findings.append(
                Finding(
                    extraction.path,
                    offender.lineno,
                    offender.col,
                    "S005",
                    f"ISN-checked transition into "
                    f"{sets[0].dst if sets else event} is reachable through a "
                    f"{where} with no dominating ISN comparison — the "
                    "handshake no longer proves the peer's address",
                )
            )
            for edge in isn_edges:
                if edge.event == event and (not guards or edge.src in guards):
                    verified[edge] = False
        if not sets:
            # the event method no longer performs the transition at all;
            # S002 reports that — but the edges it claimed are unverified
            for edge in isn_edges:
                if edge.event == event:
                    verified[edge] = False
    return findings, verified


def check_model_walk(
    extraction: FsmExtraction,
    spec: FsmSpec,
    verified: dict[Transition, bool],
    *,
    max_reports: int = 10,
) -> Iterator[Finding]:
    """S004: exhaustively walk the spec; every simple path from an initial
    state into the accepting state must cross a code-verified ISN edge."""
    concrete_states = sorted(spec.states - spec.virtual_states | spec.initial)
    edges: list[tuple[str, str, Transition]] = []
    for t in spec.transitions:
        sources = concrete_states if t.src == "*" else [t.src]
        for src in sources:
            edges.append((src, t.dst, t))
    bad_paths: list[list[tuple[str, str, Transition]]] = []

    def dfs(state: str, path: list[tuple[str, str, Transition]], seen: frozenset[str]) -> None:
        if state == spec.accepting:
            if not any(verified.get(t, False) and t.isn_checked for _, _, t in path):
                bad_paths.append(list(path))
            return
        for src, dst, t in edges:
            if src == state and dst not in seen:
                path.append((src, dst, t))
                dfs(dst, path, seen | {dst})
                path.pop()

    for initial in sorted(spec.initial):
        dfs(initial, [], frozenset({initial}))
    anchor = next(
        (s for s in extraction.state_sets if s.dst == spec.accepting), None
    )
    lineno = anchor.lineno if anchor else 1
    col = anchor.col if anchor else 0
    for path in itertools.islice(bad_paths, max_reports):
        rendered = " -> ".join([path[0][0]] + [dst for _, dst, _ in path])
        yield Finding(
            extraction.path,
            lineno,
            col,
            "S004",
            f"model walk: path {rendered} reaches {spec.accepting} without "
            "crossing a verified ISN-checked edge — a spoofing client could "
            "complete this path without echoing the server's sequence number",
        )
    if len(bad_paths) > max_reports:
        yield Finding(
            extraction.path,
            lineno,
            col,
            "S004",
            f"model walk: {len(bad_paths) - max_reports} further unverified "
            f"path(s) into {spec.accepting} suppressed",
        )


def check_retry_escapes(extraction: FsmExtraction, spec: FsmSpec) -> Iterator[Finding]:
    """S006: retry-obligated states need a retransmit escape + bounded abort."""
    if not spec.retry_states:
        return
    handler = extraction.methods.get("_on_retransmit")
    if handler is None:
        yield Finding(
            extraction.path,
            1,
            0,
            "S006",
            "no _on_retransmit handler found — every in-flight state would "
            "hang forever once a peer goes silent",
        )
        return
    tests = [node.test for node in handler.nodes.of(ast.If, ast.While)]
    mentioned: set[str] = set()
    has_inflight_catchall = False
    for test in tests:
        for sub in ast.walk(test):
            if (
                isinstance(sub, ast.Attribute)
                and isinstance(sub.value, ast.Name)
                and sub.value.id == extraction.enum_name
                and sub.attr in extraction.states
            ):
                mentioned.add(sub.attr)
        if any(name == "_inflight" for name in _identifiers(test)):
            has_inflight_catchall = True
    #: states whose retransmission rides the in-flight segment queue
    data_states = spec.retry_states - {"SYN_SENT", "SYN_RCVD"}
    for state in sorted(spec.retry_states):
        covered = state in mentioned or (
            state in data_states and has_inflight_catchall
        )
        if not covered:
            yield Finding(
                extraction.path,
                handler.node.lineno,
                handler.node.col_offset,
                "S006",
                f"retry-obligated state {state} has no retransmit escape in "
                "_on_retransmit() — a lost segment strands the connection",
            )
    budget_guarded_abort = False
    for node in handler.nodes.of(ast.If):
        ids = _identifiers(node.test)
        if any("retransmit" in name for name in ids) and any(
            "max" in name for name in ids
        ):
            for sub in ast.walk(node):
                if (
                    isinstance(sub, ast.Call)
                    and (dotted_name(sub.func) or "").rsplit(".", 1)[-1]
                    == "abort"
                ):
                    budget_guarded_abort = True
    if not budget_guarded_abort:
        yield Finding(
            extraction.path,
            handler.node.lineno,
            handler.node.col_offset,
            "S006",
            "_on_retransmit() has no budget-bounded abort "
            "(retransmits > max_retransmits -> abort) — a dead peer costs "
            "unbounded retransmissions instead of bounded time",
        )


#: Callees that create or feed a connection; inside a SYN-cookie region
#: they must be dominated by the cookie ISN validation.
_COOKIE_CALLEES = ("handle", "on_connection", "_start_from_cookie")


def check_syn_cookie_order(extraction: FsmExtraction) -> Iterator[Finding]:
    """S007: no segment handling before SYN-cookie validation."""
    conn_classes = {
        name for name in extraction.call_sites if name[:1].isupper()
    }
    callees = set(_COOKIE_CALLEES) | {
        c for c in conn_classes if "conn" in c.lower()
    }
    for callee in sorted(callees):
        for site in extraction.call_sites.get(callee, []):
            in_cookie_region = any(
                _mentions_flag(c.expr, "syn_cookies", c.polarity)
                for c in site.conditions
            )
            if not in_cookie_region:
                continue
            if _isn_dominated(site.conditions):
                continue
            yield Finding(
                extraction.path,
                site.lineno,
                site.col,
                "S007",
                f"{callee}() is invoked in the SYN-cookie path of "
                f"{site.method}() before the cookie ISN is validated — a "
                "forged ACK would be processed as a completed handshake",
            )


_FSM_RULES = frozenset(rule.id for rule in rules_in(("fsm",)))

#: Path suffix -> the FSM spec that module must conform to.
_SPEC_TARGETS: tuple[tuple[str, FsmSpec], ...] = (
    (str(Path("netsim") / "tcp.py"), TCP_SPEC),
)


def _module_findings(
    module: ModuleInfo, spec: FsmSpec, selected: frozenset[str]
) -> list[Finding]:
    findings: list[Finding] = []
    extraction = extract_fsm(module)
    if extraction is None:
        if "S002" in selected:
            findings.append(
                Finding(
                    module.path,
                    1,
                    0,
                    "S002",
                    f"expected the {spec.name} state machine here but "
                    "no state-enum assignments were found",
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
    """Findings of the selected S-rules over every module a spec targets."""
    findings: list[Finding] = []
    if not selected & _FSM_RULES:
        return findings
    for module in facts.modules:
        for suffix, spec in _SPEC_TARGETS:
            if module.path.endswith(suffix):
                findings.extend(_module_findings(module, spec, selected))
                break
    return findings
