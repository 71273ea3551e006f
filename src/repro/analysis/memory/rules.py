"""The M-rule checks: state-exhaustion patterns over ``__state_bounds__``.

Each check is a function ``(view) -> list[Finding]`` over one module's
:class:`ModuleView`; :data:`MEMORY_CHECKS` maps rule ids to checks.  The
analysis composes two inference layers:

* the **taint surface** from ``__trust_boundary__`` (which parameters
  carry attacker-controlled packet fields) decides whether a collection
  key is attacker-chosen, and the trust model's ``entry_points`` seed the
  attacker-callable closure;
* the **hot set** from :mod:`.hotpath` (schedule-site callbacks and
  ``Node.receive`` reachability) decides whether an insert
  runs per event and whether a sweep is actually reachable from a
  scheduled callback.

The checks are deliberately syntactic about *mechanism* — a cap is a
``len(self.attr)`` comparison or an eviction call in the same function as
the insert — because that is the property the runtime monitor can then
witness: a bound that is enforced wherever it can be exceeded.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import TYPE_CHECKING, Iterator

from ..declarations import StateBound
from ..findings import Finding
from ..parse import SCHEDULE_NAMES, FunctionDecl, ModuleInfo, class_of, self_attr
from .hotpath import hot_set

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..kernel import Facts

#: Methods whose call on ``self.attr`` adds an entry.
_INSERT_METHODS = frozenset({"setdefault", "append", "add", "insert", "update"})

#: Methods whose call on ``self.attr`` removes entries.
_EVICT_METHODS = frozenset({"pop", "popitem", "clear", "remove", "discard"})

#: Call-graph depth cap for the attacker-callable closure.
_MAX_DEPTH = 12


@dataclasses.dataclass(slots=True)
class _Op:
    """One insert or evict touching ``self.<attr>``."""

    attr: str
    node: ast.AST
    key: ast.expr | None  # the key expression for keyed inserts


def _collect_ops(decl: FunctionDecl) -> tuple[list[_Op], list[_Op]]:
    """(inserts, evictions) on self-attributes in ``decl``."""
    inserts: list[_Op] = []
    evictions: list[_Op] = []
    for node in decl.nodes.of(
        ast.Assign, ast.AnnAssign, ast.AugAssign, ast.Delete, ast.Call
    ):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Subscript):
                    attr = self_attr(target.value)
                    if attr is not None:
                        inserts.append(_Op(attr, node, target.slice))
                elif isinstance(node, ast.Assign):
                    attr = self_attr(target)
                    if attr is not None and isinstance(
                        node.value, (ast.Dict, ast.DictComp, ast.ListComp, ast.List)
                    ):
                        # wholesale rebind: the filtered-rebuild sweep idiom
                        evictions.append(_Op(attr, node, None))
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Subscript):
                    attr = self_attr(target.value)
                    if attr is not None:
                        evictions.append(_Op(attr, node, None))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            attr = self_attr(node.func.value)
            if attr is None:
                continue
            method = node.func.attr
            if method in _INSERT_METHODS:
                key = node.args[0] if node.args else None
                inserts.append(_Op(attr, node, key))
            elif method in _EVICT_METHODS:
                evictions.append(_Op(attr, node, None))
    return inserts, evictions


def _cap_check_lines(decl: FunctionDecl, attr: str) -> list[int]:
    """Lines comparing ``len(self.attr)`` against anything."""
    lines: list[int] = []
    for node in decl.nodes.of(ast.Compare):
        for operand in (node.left, *node.comparators):
            if (
                isinstance(operand, ast.Call)
                and isinstance(operand.func, ast.Name)
                and operand.func.id == "len"
                and operand.args
                and self_attr(operand.args[0]) == attr
            ):
                lines.append(getattr(node, "lineno", 0))
    return lines


def _tainted_names(decl: FunctionDecl, taint_params) -> set[str]:
    """Names holding attacker data in ``decl``: tainted parameters plus
    simple forward propagation through assignments, in source order."""
    tainted = {p for p in decl.params if p in taint_params}
    if not tainted:
        return tainted

    def mentions(expr: ast.expr) -> bool:
        return any(
            isinstance(n, ast.Name) and n.id in tainted for n in ast.walk(expr)
        )

    # the index is breadth-first; statements start in source order
    assigns = sorted(decl.nodes.of(ast.Assign), key=lambda n: (n.lineno, n.col_offset))
    for node in assigns:
        if mentions(node.value):
            for target in node.targets:
                # only plain (possibly tuple-destructured) name bindings
                # propagate; storing into self.attr[...] must not taint
                # the receiver name itself
                if isinstance(target, (ast.Subscript, ast.Attribute)):
                    continue
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and name.id not in ("self", "cls"):
                        tainted.add(name.id)
    return tainted


@dataclasses.dataclass(slots=True)
class ModuleView:
    """Everything the M-checks need about one module, computed once."""

    module: ModuleInfo
    #: class -> attr -> StateBound; None when no declaration exists at all
    bounds: dict[str, dict[str, StateBound]] | None
    decl_line: int
    #: qualnames reachable from the trust model's entry points (plus the
    #: hot set, unioned by the caller) — where attacker packets execute
    attacker_callable: frozenset[str]

    def bound_for(self, qualname: str, attr: str) -> StateBound | None:
        if self.bounds is None:
            return None
        class_name = class_of(qualname) or ""
        return self.bounds.get(class_name, {}).get(attr)


def _entry_closure(module: ModuleInfo) -> frozenset[str]:
    """Qualnames reachable from the module's trust entry points through
    local ``self.helper()`` / bare-name calls (depth-bounded)."""
    entries: list[str] = []
    for qualname in module.functions:
        bare = qualname.rsplit(".", 1)[-1]
        for ep in module.declared.trust.entry_points:
            if qualname == ep or bare == ep or qualname.endswith("." + ep):
                entries.append(qualname)
                break
    seen: set[str] = set()
    frontier = [(q, 0) for q in entries]
    while frontier:
        qualname, depth = frontier.pop()
        if qualname in seen or depth > _MAX_DEPTH:
            continue
        seen.add(qualname)
        enclosing = class_of(qualname)
        for callee in module.functions[qualname].local_callees():
            target = None
            if enclosing is not None:
                target = module.functions.get(f"{enclosing}.{callee}")
            if target is None:
                target = module.function_named(callee)
            if target is not None and target.qualname not in seen:
                frontier.append((target.qualname, depth + 1))
    return frozenset(seen)


def build_view(module: ModuleInfo, hot_qualnames: frozenset[str]) -> ModuleView:
    bounds, decl_line = module.declared.state_bounds or (None, 1)
    return ModuleView(
        module=module,
        bounds=bounds,
        decl_line=decl_line,
        attacker_callable=_entry_closure(module) | hot_qualnames,
    )


# ---------------------------------------------------------------------------
# M001 — attacker-keyed insert on an attacker-driven path, no declared bound
# ---------------------------------------------------------------------------


def check_m001(view: ModuleView) -> Iterator[Finding]:
    module = view.module
    taint_params = module.declared.trust.taint_params
    if not taint_params:
        return
    for qualname, decl in module.functions.items():
        if qualname not in view.attacker_callable:
            continue
        inserts, _ = _collect_ops(decl)
        if not inserts:
            continue
        tainted = _tainted_names(decl, taint_params)
        if not tainted:
            continue
        for op in inserts:
            if view.bound_for(qualname, op.attr) is not None:
                continue
            key = op.key
            if key is None or not any(
                isinstance(n, ast.Name) and n.id in tainted for n in ast.walk(key)
            ):
                continue
            yield Finding.at(
                view.module.path,
                op.node,
                "M001",
                f"attacker-keyed insert into undeclared collection "
                f"self.{op.attr} in {qualname} — a spoofed flood chooses "
                f"the keys, so the table needs a __state_bounds__ entry "
                f"with an enforced bound",
            )


# ---------------------------------------------------------------------------
# M002 — declared cap/lru bound with an insert site that cannot enforce it
# ---------------------------------------------------------------------------


def check_m002(view: ModuleView) -> Iterator[Finding]:
    if not view.bounds:
        return
    for qualname, decl in view.module.functions.items():
        inserts, evictions = _collect_ops(decl)
        evicted_attrs = {op.attr for op in evictions}
        for op in inserts:
            bound = view.bound_for(qualname, op.attr)
            if bound is None or not (bound.evicted_by & {"cap", "lru"}):
                continue
            if op.attr in evicted_attrs or _cap_check_lines(decl, op.attr):
                continue
            yield Finding.at(
                view.module.path,
                op.node,
                "M002",
                f"insert into {bound.describe()} with no cap check or "
                f"eviction in {qualname} — the declared bound is not "
                f"statically enforced at this insert site",
            )


# ---------------------------------------------------------------------------
# M003 — sweep-declared soft state with no scheduled sweep reaching it
# ---------------------------------------------------------------------------


def check_m003(view: ModuleView) -> Iterator[Finding]:
    if not view.bounds:
        return
    for class_name, attrs in sorted(view.bounds.items()):
        for attr, bound in sorted(attrs.items()):
            if "sweep" not in bound.evicted_by:
                continue
            swept = False
            for qualname, decl in view.module.functions.items():
                if not qualname.startswith(class_name + "."):
                    continue
                _, evictions = _collect_ops(decl)
                if any(op.attr == attr for op in evictions):
                    if qualname in view.attacker_callable:
                        swept = True
                        break
            if not swept:
                yield Finding(
                    path=view.module.path,
                    line=view.decl_line,
                    col=0,
                    rule="M003",
                    message=(
                        f"{bound.describe()} declares sweep eviction but "
                        f"no eviction-performing method is reachable from "
                        f"a scheduled callback — entries inserted under "
                        f"flood never expire"
                    ),
                )


# ---------------------------------------------------------------------------
# M004 — insert that can bypass its cap on an early-return/raise path
# ---------------------------------------------------------------------------


def check_m004(view: ModuleView) -> Iterator[Finding]:
    if not view.bounds:
        return
    for qualname, decl in view.module.functions.items():
        inserts, evictions = _collect_ops(decl)
        for op in inserts:
            bound = view.bound_for(qualname, op.attr)
            if bound is None or not (bound.evicted_by & {"cap", "lru"}):
                continue
            insert_line = getattr(op.node, "lineno", 0)
            enforce_lines = _cap_check_lines(decl, op.attr) + [
                getattr(e.node, "lineno", 0)
                for e in evictions
                if e.attr == op.attr
            ]
            if any(l <= insert_line for l in enforce_lines):
                continue  # enforcement precedes the insert: bypass-proof
            after = sorted(l for l in enforce_lines if l > insert_line)
            if not after:
                continue
            enforce_line = after[0]
            for node in decl.nodes.of(ast.Return, ast.Raise):
                if insert_line < node.lineno < enforce_line:
                    yield Finding.at(
                        view.module.path,
                        node,
                        "M004",
                        f"early {'return' if isinstance(node, ast.Return) else 'raise'} "
                        f"between the insert into self.{op.attr} "
                        f"(line {insert_line}) and its cap enforcement "
                        f"(line {enforce_line}) in {qualname} — the "
                        f"bound on {bound.describe()} can be bypassed",
                    )


# ---------------------------------------------------------------------------
# M005 — unbudgeted self-reschedule that also grows a collection
# ---------------------------------------------------------------------------


def check_m005(view: ModuleView) -> Iterator[Finding]:
    if view.bounds is None:
        return
    for qualname, decl in view.module.functions.items():
        bare = qualname.rsplit(".", 1)[-1]
        inserts, evictions = _collect_ops(decl)
        # the sweep idiom (rebuild/shrink a table it also evicts from) is
        # net non-growing; only inserts with no matching eviction count
        evicted_attrs = {op.attr for op in evictions}
        growing = [op for op in inserts if op.attr not in evicted_attrs]
        if not growing:
            continue
        for site in _unguarded_self_reschedules(decl, bare):
            yield Finding.at(
                view.module.path,
                site,
                "M005",
                f"{qualname} reschedules itself unconditionally while "
                f"inserting into self.{growing[0].attr} — each firing "
                f"grows state with no budget; guard the reschedule or "
                f"make the callback evict-only",
            )


def _unguarded_self_reschedules(decl: FunctionDecl, bare: str) -> list[ast.Call]:
    """Schedule calls whose callback is the enclosing function itself and
    that no enclosing ``if``/``while`` guards."""
    guarded: set[ast.AST] = set()
    for node in decl.nodes.of(ast.If, ast.While):
        for child in node.body + node.orelse:
            guarded.update(ast.walk(child))
    sites: list[ast.Call] = []
    for node in decl.calls:
        if node in guarded:
            continue
        func = node.func
        suffix = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        if suffix not in SCHEDULE_NAMES or len(node.args) < 2:
            continue
        callback = node.args[1]
        if self_attr(callback) == bare:
            sites.append(node)
    return sites


#: rule id -> per-module check.
MEMORY_CHECKS = {
    "M001": check_m001,
    "M002": check_m002,
    "M003": check_m003,
    "M004": check_m004,
    "M005": check_m005,
}


def check(facts: "Facts", selected: frozenset[str]) -> list[Finding]:
    """The memory family's check: each selected static M-rule per module.

    The hot set (:func:`.hotpath.hot_set`, over the run's shared name
    index) tells M001/M003 which functions run per attacker packet and
    which sweeps a scheduler actually reaches.
    """
    hot_by_path: dict[str, set[str]] = {}
    for path, qualname in hot_set(facts.modules, facts.index):
        hot_by_path.setdefault(path, set()).add(qualname)

    findings: list[Finding] = []
    for module in facts.modules:
        view = build_view(module, frozenset(hot_by_path.get(module.path, ())))
        for rule_id, rule_check in MEMORY_CHECKS.items():
            if rule_id in selected:
                findings.extend(rule_check(view))
    return findings
