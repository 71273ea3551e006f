"""The P-rule checks: per-event cost patterns inside the hot set.

Each check receives one hot function (see :mod:`.hotpath`) plus the shared
:class:`PerfContext` and yields findings.  Everything here is a *cost*
rule, not a correctness rule: a finding means "this allocates / encodes /
scans once per simulated event", and the fix-or-accept decision is
recorded either in code (the optimization), inline (``# repro:
allow[P00x] why``), or in ``scripts/analysis_baseline.json`` (accepted debt —
typically the calendar-queue candidates ROADMAP item 1 will absorb).
"""

from __future__ import annotations

import ast
import dataclasses
from typing import TYPE_CHECKING, Iterator

from ..findings import Finding
from ..parse import (
    SCHEDULE_NAMES,
    FunctionDecl,
    ModuleInfo,
    call_name,
    class_of,
    module_dotted,
    self_attr,
)
from .hotpath import HotFunction, callback_calls

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..kernel import Facts

#: Modules the message-codec rule (P002) never fires in: the codec itself
#: is where encoding is supposed to happen.
_CODEC_PREFIX = "repro.dnswire"

#: Attribute calls that (re-)serialise a DNS message.
_ENCODE_METHODS = frozenset({"encode", "wire_size", "to_wire"})

#: Logger-ish receiver names for P004.
_LOGGER_NAMES = frozenset({"log", "logger", "logging"})
_LOG_METHODS = frozenset({"debug", "info", "warning", "error", "critical", "exception", "log"})

#: Base-class names that exempt a class from P001 (no per-event churn:
#: exceptions are exceptional, enums/protocols are never instantiated hot).
_P001_EXEMPT_BASES = frozenset(
    {"Exception", "Enum", "IntEnum", "IntFlag", "Flag", "Protocol", "NamedTuple", "TypedDict"}
)


@dataclasses.dataclass(slots=True)
class ClassSite:
    """One class definition as P001 sees it."""

    name: str
    path: str
    line: int
    slotted: bool
    exempt: bool


def _is_slots_dataclass(decorator: ast.expr) -> bool:
    if not isinstance(decorator, ast.Call):
        return False
    name = call_name(decorator)
    if name.rsplit(".", 1)[-1] != "dataclass":
        return False
    return any(
        kw.arg == "slots"
        and isinstance(kw.value, ast.Constant)
        and kw.value.value is True
        for kw in decorator.keywords
    )


def _classify_class(stmt: ast.ClassDef, path: str) -> ClassSite:
    slotted = any(_is_slots_dataclass(dec) for dec in stmt.decorator_list)
    for sub in stmt.body:
        targets: list[ast.expr] = []
        if isinstance(sub, ast.Assign):
            targets = sub.targets
        elif isinstance(sub, ast.AnnAssign):
            targets = [sub.target]
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__slots__":
                slotted = True
    exempt = False
    for base in stmt.bases:
        base_name = ""
        if isinstance(base, ast.Name):
            base_name = base.id
        elif isinstance(base, ast.Attribute):
            base_name = base.attr
        if base_name in _P001_EXEMPT_BASES or base_name.endswith(("Error", "Exception")):
            exempt = True
    return ClassSite(
        name=stmt.name, path=path, line=stmt.lineno, slotted=slotted, exempt=exempt
    )


class PerfContext:
    """Cross-module lookups shared by all P-rule checks."""

    def __init__(self, modules: list[ModuleInfo]):
        #: module path -> class name -> ClassSite
        self.classes: dict[str, dict[str, ClassSite]] = {}
        #: bare class name -> every ClassSite with that name
        self.classes_by_name: dict[str, list[ClassSite]] = {}
        #: (module path, class name) -> attr -> "mapping" | "sequence"
        self.attr_kinds: dict[tuple[str, str], dict[str, str]] = {}
        for module in modules:
            per_module: dict[str, ClassSite] = {}
            for stmt in module.tree.body:
                if not isinstance(stmt, ast.ClassDef):
                    continue
                site = _classify_class(stmt, module.path)
                per_module[site.name] = site
                self.classes_by_name.setdefault(site.name, []).append(site)
                init = module.functions.get(f"{site.name}.__init__")
                self.attr_kinds[(module.path, site.name)] = (
                    {} if init is None else _init_attr_kinds(init)
                )
            self.classes[module.path] = per_module

    def class_for_call(self, module: ModuleInfo, name: str) -> ClassSite | None:
        """Resolve a constructor call: same module first, else a unique
        cross-module class with that bare name."""
        bare = name.rsplit(".", 1)[-1]
        local = self.classes.get(module.path, {}).get(bare)
        if local is not None:
            return local
        candidates = self.classes_by_name.get(bare, [])
        return candidates[0] if len(candidates) == 1 else None

    def attr_kind(self, module: ModuleInfo, class_name: str | None, attr: str) -> str | None:
        if class_name is None:
            return None
        return self.attr_kinds.get((module.path, class_name), {}).get(attr)


def _init_attr_kinds(init: FunctionDecl) -> dict[str, str]:
    """``self.X = {} / set() / []`` evidence from ``__init__``: tells P005
    whether a membership test against ``self.X`` is O(1) or O(n)."""
    kinds: dict[str, str] = {}
    for node in init.nodes.of(ast.Assign, ast.AnnAssign):
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        kind: str | None = None
        if isinstance(value, (ast.Dict, ast.DictComp, ast.SetComp, ast.Set)):
            kind = "mapping"
        elif isinstance(value, (ast.List, ast.ListComp, ast.Tuple)):
            kind = "sequence"
        elif isinstance(value, ast.Call):
            callee = call_name(value).rsplit(".", 1)[-1]
            if callee in ("dict", "set", "defaultdict", "Counter", "OrderedDict"):
                kind = "mapping"
            elif callee in ("list", "tuple", "deque", "sorted"):
                kind = "sequence"
        if kind is None:
            continue
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                kinds.setdefault(target.attr, kind)
    return kinds


def _error_path_nodes(decl: FunctionDecl) -> set[ast.AST]:
    """Every node inside a raise/assert/except subtree — strings
    formatted only on error paths are not per-event costs."""
    marked: set[ast.AST] = set()
    for node in decl.nodes.of(ast.Raise, ast.Assert, ast.ExceptHandler):
        marked.update(ast.walk(node))
    return marked


def _finding(hot: HotFunction, node: ast.AST, rule: str, message: str) -> Finding:
    evidence = f"[{hot.decl.qualname}: {hot.describe()}]"
    return Finding.at(hot.module.path, node, rule, f"{message} {evidence}")


# -- P001: per-event instantiation of an unslotted class ----------------------


def check_unslotted_instantiation(ctx: PerfContext, hot: HotFunction) -> Iterator[Finding]:
    reported: set[str] = set()
    for node in hot.decl.calls:
        name = call_name(node)
        if not name:
            continue
        site = ctx.class_for_call(hot.module, name)
        if site is None or site.slotted or site.exempt or site.name in reported:
            continue
        reported.add(site.name)
        yield _finding(
            hot,
            node,
            "P001",
            f"instantiates {site.name} (defined without __slots__ at "
            f"{site.path}:{site.line}) once per event — give it "
            "__slots__ or reuse a flyweight",
        )


# -- P002: re-encoding a DNS message on the hot path --------------------------


def check_reencoding(ctx: PerfContext, hot: HotFunction) -> Iterator[Finding]:
    if module_dotted(hot.module.path).startswith(_CODEC_PREFIX):
        return
    for node in hot.decl.calls:
        if isinstance(node.func, ast.Attribute) and node.func.attr in _ENCODE_METHODS:
            yield _finding(
                hot,
                node,
                "P002",
                f".{node.func.attr}() serialises a DNS message once per "
                "event; most per-packet messages differ only in id/"
                "source — memoize the encoding (Message.freeze) or pass "
                "a cached size",
            )


# -- P003: per-event closure allocation at a schedule site --------------------


def check_closure_callbacks(ctx: PerfContext, hot: HotFunction) -> Iterator[Finding]:
    for site in callback_calls(hot.decl):
        callback = site.args[1]
        label: str | None = None
        if isinstance(callback, ast.Lambda):
            label = "a lambda"
        elif (
            isinstance(callback, ast.Call)
            and call_name(callback).rsplit(".", 1)[-1] == "partial"
        ):
            label = "a functools.partial"
        if label is None:
            continue
        yield _finding(
            hot,
            callback,
            "P003",
            f"schedules {label} allocated per event — pass the bound "
            "method and its arguments to schedule() directly",
        )


# -- P004: unguarded formatting / logging on the hot path ---------------------


def check_formatting(ctx: PerfContext, hot: HotFunction) -> Iterator[Finding]:
    error_paths = _error_path_nodes(hot.decl)
    for node in hot.decl.nodes.of(ast.JoinedStr, ast.Call):
        if node in error_paths:
            continue
        if isinstance(node, ast.JoinedStr):
            yield _finding(
                hot,
                node,
                "P004",
                "f-string formatted once per event even when nobody "
                "reads it — build the string lazily or only on error "
                "paths",
            )
        else:
            name = call_name(node)
            parts = name.split(".")
            if name == "print":
                yield _finding(
                    hot,
                    node,
                    "P004",
                    "print() on the hot path blocks the event loop on "
                    "I/O once per event",
                )
            elif (
                len(parts) >= 2
                and parts[-2] in _LOGGER_NAMES
                and parts[-1] in _LOG_METHODS
            ):
                yield _finding(
                    hot,
                    node,
                    "P004",
                    f"{name}() runs once per event even when the level "
                    "is disabled — guard it or log outside the hot path",
                )


# -- P005: O(n) scans inside per-packet handlers ------------------------------


def _self_table(expr: ast.expr) -> str | None:
    """``X`` when ``expr`` is ``self.X`` or ``self.X.items()/.keys()/.values()``."""
    if (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Attribute)
        and expr.func.attr in ("items", "keys", "values")
    ):
        expr = expr.func.value
    return self_attr(expr)


def check_linear_scans(ctx: PerfContext, hot: HotFunction) -> Iterator[Finding]:
    enclosing = class_of(hot.decl.qualname)
    for node in hot.decl.nodes.of(ast.Compare, ast.Call, ast.Assign, ast.For, ast.AsyncFor):
        if isinstance(node, ast.Compare) and any(
            isinstance(op, (ast.In, ast.NotIn)) for op in node.ops
        ):
            container = node.comparators[-1]
            if not isinstance(container, ast.Attribute):
                continue
            attr_owner = container.value
            attr_kind = None
            if isinstance(attr_owner, ast.Name) and attr_owner.id in ("self", "cls"):
                attr_kind = ctx.attr_kind(hot.module, enclosing, container.attr)
            if attr_kind == "mapping":
                continue  # dict/set membership is O(1); no scan here
            yield _finding(
                hot,
                node,
                "P005",
                f"membership test over .{container.attr} scans a "
                "sequence once per event — use a dict/set or a "
                "precomputed table",
            )
        elif isinstance(node, ast.Call):
            name = call_name(node).rsplit(".", 1)[-1]
            if name in ("sorted", "sort"):
                yield _finding(
                    hot,
                    node,
                    "P005",
                    f"{name}() inside a per-packet handler is O(n log n) "
                    "per event — keep the structure ordered incrementally",
                )
            elif name in ("min", "max") and len(node.args) == 1:
                table = _self_table(node.args[0])
                if table is not None:
                    yield _finding(
                        hot,
                        node,
                        "P005",
                        f"{name}() over .{table} scans the whole table "
                        "once per event — keep a heap or an ordered "
                        "index beside it",
                    )
        elif isinstance(node, ast.Assign) and isinstance(
            node.value, (ast.ListComp, ast.SetComp, ast.DictComp)
        ):
            table = _self_table(node.value.generators[0].iter)
            if table is not None and any(self_attr(t) == table for t in node.targets):
                yield _finding(
                    hot,
                    node,
                    "P005",
                    f"rebuilds .{table} with a comprehension over itself "
                    "once per event — delete the dead entries in place "
                    "(ordered table, purge from the head)",
                )
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            if not isinstance(node.iter, ast.Attribute):
                continue
            has_return = any(
                isinstance(sub, ast.Return) for sub in ast.walk(node)
            )
            if not has_return:
                continue
            yield _finding(
                hot,
                node,
                "P005",
                f"linear search over .{node.iter.attr} once per event — "
                "index it (dict keyed by the match field) or cache the "
                "lookup",
            )


# -- P006: constant-delay heap pushes (calendar-queue candidates) -------------


def _is_constant_shaped(expr: ast.expr) -> bool:
    """No calls anywhere in the delay expression: the offset is a constant,
    an attribute, or arithmetic over them — exactly what a calendar queue
    bucket absorbs in O(1)."""
    return not any(isinstance(node, ast.Call) for node in ast.walk(expr))


def check_constant_delay_pushes(ctx: PerfContext, hot: HotFunction) -> Iterator[Finding]:
    for node in hot.decl.calls:
        suffix = call_name(node).rsplit(".", 1)[-1]
        if suffix not in SCHEDULE_NAMES or len(node.args) < 2:
            continue
        if not _is_constant_shaped(node.args[0]):
            continue
        yield _finding(
            hot,
            node,
            "P006",
            f"{suffix}() with a constant-shaped delay pushes into the "
            "binary heap once per event — a calendar-queue/bucket lane "
            "would make this O(1) (ROADMAP item 1)",
        )


#: rule id -> check function, in reporting order.
PERF_CHECKS = {
    "P001": check_unslotted_instantiation,
    "P002": check_reencoding,
    "P003": check_closure_callbacks,
    "P004": check_formatting,
    "P005": check_linear_scans,
    "P006": check_constant_delay_pushes,
}


def check(facts: "Facts", selected: frozenset[str]) -> list[Finding]:
    """The perf family's check: each selected P-rule over each hot function.

    The hot set (schedule-site callbacks and ``Node.receive``
    reachability) comes off the run's shared facts.  Accepted findings
    live in ``scripts/analysis_baseline.json`` and self-shrink through
    U001.
    """
    ctx = PerfContext(facts.modules)
    findings: list[Finding] = []
    for entry in facts.hot_paths.functions.values():
        for rule_id, rule_check in PERF_CHECKS.items():
            if rule_id in selected:
                findings.extend(rule_check(ctx, entry))
    return findings
