"""Static effect inference over scheduled callbacks (R001/R002).

For every callback the source tree passes to ``Simulator.schedule`` /
``schedule_at`` we compute a may-read/may-write *effect set* over the
shared-state cells declared via ``__shared_state__`` (see
:mod:`.declarations`).  A static cell is class-qualified —
``"RemoteDnsGuard._pending"`` — so two classes sharing an attribute name
never alias, but the pass still cannot tell two *instances* of one class
apart; a cell is "some RemoteDnsGuard's ``_pending``", and the dynamic
monitor (R003/R004) is the layer that distinguishes owners.  Effects
propagate transitively through callees using the same name-index
resolution the taint engine uses.

Two rules fall out:

* **R001** — two *different* handlers, schedulable in the same priority
  lane, have statically overlapping write sets over guarded cells.  The
  scheduler places any two timer expirations at equal virtual time, so an
  overlapping pair is an order-dependence hazard unless the pair is
  ordered by lane contract (``priority=BOUNDARY_PRIORITY``) or documented
  with an inline ``# repro: allow[R001]``.  Self-pairs (the same handler
  scheduled twice, e.g. a periodic sweep) are not reported: statically
  they always self-overlap, and the instances that actually collide run
  on distinct owners the dynamic layer can see.
* **R002** — shared-state discipline: a module on the required list with
  no ``__shared_state__`` declaration, or a declared class writing an
  undeclared attribute outside ``__init__``.

The static layer is deliberately incomplete: callbacks reached through
runtime indirection (``link.schedule(..., receiver.receive, packet)``
where ``receiver`` is any node) resolve only when the bare name is
unique.  The dynamic interference sanitizer covers what this pass cannot
see; this pass covers orders the dynamic run never executed.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path

from ..findings import Finding
from ..rules import dotted_name
from .declarations import SharedStateDecl, declarations_for_module
from ..flow.core import (
    FunctionDecl,
    ModuleInfo,
    NameIndex,
    _call_name,
    class_of,
    self_attr,
)

#: Method names that mutate their receiver (dict/set/list soft state).
_MUTATOR_METHODS = frozenset(
    {
        "pop",
        "clear",
        "update",
        "setdefault",
        "popitem",
        "append",
        "add",
        "remove",
        "discard",
        "extend",
        "insert",
    }
)

#: Scheduler entry points, matched on the call's dotted suffix.
_SCHEDULE_NAMES = frozenset({"schedule", "schedule_at"})

#: Effect-propagation passes across the call graph (chains are shallow —
#: handler -> helper -> table mutation).
_EFFECT_PASSES = 3

#: Path suffixes that must carry a ``__shared_state__`` declaration:
#: every module whose classes own soft state that scheduled handlers
#: mutate.  Grown alongside the declarations themselves.
REQUIRED_DECLARATIONS: tuple[str, ...] = (
    str(Path("guard") / "pipeline.py"),
    str(Path("guard") / "local_guard.py"),
    str(Path("guard") / "tcp_scheme.py"),
    str(Path("guard") / "core" / "ratelimit.py"),
    str(Path("guard") / "core" / "admission.py"),
    str(Path("faults") / "plan.py"),
    str(Path("control") / "controller.py"),
    str(Path("control") / "actuators.py"),
    str(Path("control") / "signals.py"),
)


@dataclasses.dataclass(slots=True)
class EffectSet:
    """May-read/may-write attribute names for one function."""

    reads: frozenset[str] = frozenset()
    writes: frozenset[str] = frozenset()

    def __or__(self, other: "EffectSet") -> "EffectSet":
        return EffectSet(self.reads | other.reads, self.writes | other.writes)


@dataclasses.dataclass(slots=True)
class ScheduleSite:
    """One ``sim.schedule(...)`` call and what its callback may touch."""

    path: str
    line: int
    col: int
    lane: str  # "default" | "boundary"
    callbacks: tuple[str, ...]  # resolved handler qualnames (or "<lambda>")
    effects: EffectSet


def _decl_index(modules: list[ModuleInfo]) -> dict[str, dict[str, SharedStateDecl]]:
    """module path -> class name -> declaration."""
    return {m.path: declarations_for_module(m.tree) for m in modules}


def _watched_cells(
    decls: dict[str, dict[str, SharedStateDecl]],
) -> tuple[frozenset[str], frozenset[str]]:
    """(all declared cells, the commutative subset), class-qualified.

    A static cell is ``"ClassName.attr"`` — qualified by the *declaring*
    class so two classes that happen to share an attribute name (both
    guards keep a ``_sweeper`` handle) never alias.
    """
    watched: set[str] = set()
    commutative: set[str] = set()
    for per_class in decls.values():
        for decl in per_class.values():
            for attr in decl.guarded:
                watched.add(f"{decl.class_name}.{attr}")
            for attr in decl.commutative:
                cell = f"{decl.class_name}.{attr}"
                watched.add(cell)
                commutative.add(cell)
    return frozenset(watched), frozenset(commutative)


def _direct_effects(
    decl: FunctionDecl, watched: frozenset[str], class_name: str | None
) -> tuple[EffectSet, frozenset[str]]:
    """(direct effects on watched cells, bare callee names) for one function.

    ``class_name`` qualifies ``self.X`` accesses: a method of ``C`` touches
    cell ``"C.X"``, which only counts when that exact cell is declared.
    """
    reads: set[str] = set()
    writes: set[str] = set()
    callees: set[str] = set()

    def cell_for(attr: str | None) -> str | None:
        if attr is None or class_name is None:
            return None
        cell = f"{class_name}.{attr}"
        return cell if cell in watched else None

    for node in ast.walk(decl.node):
        if isinstance(node, ast.Attribute):
            cell = cell_for(self_attr(node))
            if cell is not None:
                if isinstance(node.ctx, (ast.Store, ast.Del)):
                    writes.add(cell)
                else:
                    reads.add(cell)
        elif isinstance(node, ast.Subscript):
            cell = cell_for(self_attr(node.value))
            if cell is not None and isinstance(node.ctx, (ast.Store, ast.Del)):
                writes.add(cell)
        elif isinstance(node, ast.AugAssign):
            cell = cell_for(self_attr(node.target))
            if cell is not None:
                reads.add(cell)
                writes.add(cell)
        elif isinstance(node, ast.Call):
            name = _call_name(node)
            if name:
                callees.add(name)
            if isinstance(node.func, ast.Attribute) and (
                node.func.attr in _MUTATOR_METHODS
            ):
                cell = cell_for(self_attr(node.func.value))
                if cell is not None:
                    reads.add(cell)
                    writes.add(cell)
    return EffectSet(frozenset(reads), frozenset(writes)), frozenset(callees)


def build_effects(
    modules: list[ModuleInfo],
    index: NameIndex,
    watched: frozenset[str],
) -> dict[tuple[str, str], EffectSet]:
    """Fixpoint per-function effect sets, callee effects folded in."""
    direct: dict[tuple[str, str], tuple[EffectSet, frozenset[str]]] = {}
    for module in modules:
        for decl in module.functions.values():
            direct[(module.path, decl.qualname)] = _direct_effects(
                decl, watched, class_of(decl.qualname)
            )

    effects = {key: value[0] for key, value in direct.items()}
    for _ in range(_EFFECT_PASSES):
        changed = False
        for module in modules:
            for decl in module.functions.values():
                key = (module.path, decl.qualname)
                combined = direct[key][0]
                for callee in direct[key][1]:
                    resolved = index.resolve(module, callee)
                    if resolved is None:
                        continue
                    callee_key = (resolved[0].path, resolved[1].qualname)
                    combined = combined | effects.get(callee_key, EffectSet())
                if effects[key] != combined:
                    effects[key] = combined
                    changed = True
        if not changed:
            break
    return effects


def _subclass_closure(module: ModuleInfo) -> dict[str, set[str]]:
    """class name -> {itself and every (transitive) same-module subclass}."""
    bases: dict[str, set[str]] = {}
    for stmt in module.tree.body:
        if isinstance(stmt, ast.ClassDef):
            bases[stmt.name] = {
                base.id for base in stmt.bases if isinstance(base, ast.Name)
            }
    closure: dict[str, set[str]] = {name: {name} for name in bases}
    for _ in range(len(bases)):
        changed = False
        for name, parents in bases.items():
            for parent in parents:
                if parent in closure and name not in closure[parent]:
                    closure[parent].add(name)
                    changed = True
        if not changed:
            break
    return closure


def _is_boundary_priority(node: ast.expr) -> bool:
    if isinstance(node, ast.Constant):
        return isinstance(node.value, int) and node.value < 0
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return True
    name = dotted_name(node) or ""
    return name.rsplit(".", 1)[-1] == "BOUNDARY_PRIORITY"


class _SiteCollector:
    """Finds schedule calls and resolves their callbacks to functions."""

    def __init__(
        self,
        modules: list[ModuleInfo],
        index: NameIndex,
        effects: dict[tuple[str, str], EffectSet],
        watched: frozenset[str],
    ):
        self.modules = modules
        self.index = index
        self.effects = effects
        self.watched = watched

    def collect(self) -> list[ScheduleSite]:
        sites: list[ScheduleSite] = []
        for module in self.modules:
            closure = _subclass_closure(module)
            for decl in module.functions.values():
                enclosing = class_of(decl.qualname)
                for node in ast.walk(decl.node):
                    if not isinstance(node, ast.Call):
                        continue
                    name = _call_name(node)
                    suffix = name.rsplit(".", 1)[-1]
                    if suffix not in _SCHEDULE_NAMES or len(node.args) < 2:
                        continue
                    site = self._site_for(module, closure, enclosing, node)
                    if site is not None:
                        sites.append(site)
        sites.sort(key=lambda s: (s.path, s.line, s.col))
        return sites

    def _site_for(
        self,
        module: ModuleInfo,
        closure: dict[str, set[str]],
        enclosing: str | None,
        node: ast.Call,
    ) -> ScheduleSite | None:
        callback = node.args[1]
        lane = "default"
        for keyword in node.keywords:
            if keyword.arg == "priority" and _is_boundary_priority(keyword.value):
                lane = "boundary"
        resolved = self._resolve_callback(module, closure, enclosing, callback)
        if resolved is None:
            return None
        labels, effect = resolved
        return ScheduleSite(
            path=module.path,
            line=node.lineno,
            col=node.col_offset,
            lane=lane,
            callbacks=labels,
            effects=effect,
        )

    def _resolve_callback(
        self,
        module: ModuleInfo,
        closure: dict[str, set[str]],
        enclosing: str | None,
        callback: ast.expr,
    ) -> tuple[tuple[str, ...], EffectSet] | None:
        if isinstance(callback, ast.Lambda):
            wrapper = FunctionDecl(
                "<lambda>", _lambda_as_function(callback), []
            )
            effect, _ = _direct_effects(wrapper, self.watched, enclosing)
            return ("<lambda>",), effect

        attr = self_attr(callback)
        if attr is not None and enclosing is not None:
            # `self.m`: the method on the enclosing class — or, for the
            # template-method idiom (FaultAction.schedule scheduling
            # self.start), on any same-module subclass.
            candidates: list[tuple[str, EffectSet]] = []
            for class_name in sorted(closure.get(enclosing, {enclosing})):
                qualname = f"{class_name}.{attr}"
                if qualname in module.functions:
                    candidates.append(
                        (
                            qualname,
                            self.effects.get((module.path, qualname), EffectSet()),
                        )
                    )
            if candidates:
                combined = EffectSet()
                for _, effect in candidates:
                    combined = combined | effect
                return tuple(label for label, _ in candidates), combined
            return None

        name = dotted_name(callback)
        if name is None:
            return None
        resolved = self.index.resolve(module, name)
        if resolved is None:
            return None
        target_module, target_decl = resolved
        effect = self.effects.get(
            (target_module.path, target_decl.qualname), EffectSet()
        )
        return (target_decl.qualname,), effect


def _lambda_as_function(node: ast.Lambda) -> ast.FunctionDef:
    """Wrap a lambda body so the effect extractor can walk it."""
    wrapper = ast.FunctionDef(
        name="<lambda>",
        args=node.args,
        body=[ast.Return(value=node.body)],
        decorator_list=[],
        returns=None,
        type_params=[],
    )
    return ast.fix_missing_locations(ast.copy_location(wrapper, node))


def collect_schedule_sites(
    modules: list[ModuleInfo], index: NameIndex
) -> tuple[list[ScheduleSite], frozenset[str]]:
    """(resolved schedule sites, commutative attr names) for ``modules``."""
    decls = _decl_index(modules)
    watched, commutative = _watched_cells(decls)
    effects = build_effects(modules, index, watched)
    sites = _SiteCollector(modules, index, effects, watched).collect()
    return sites, commutative


def _guarded_writes(site: ScheduleSite, commutative: frozenset[str]) -> frozenset[str]:
    return site.effects.writes - commutative


def check_write_overlaps(
    sites: list[ScheduleSite], commutative: frozenset[str]
) -> list[Finding]:
    """R001: same-lane handler pairs with overlapping guarded write sets."""
    findings: list[Finding] = []
    seen: set[tuple] = set()
    for i, first in enumerate(sites):
        first_writes = _guarded_writes(first, commutative)
        if not first_writes:
            continue
        for second in sites[i + 1 :]:
            if second.lane != first.lane:
                continue
            if set(second.callbacks) == set(first.callbacks):
                continue  # self-pair: same handler, periodic reschedule
            overlap = first_writes & _guarded_writes(second, commutative)
            if not overlap:
                continue
            key = (
                tuple(sorted(first.callbacks)),
                tuple(sorted(second.callbacks)),
                tuple(sorted(overlap)),
            )
            if key in seen or (key[1], key[0], key[2]) in seen:
                continue
            seen.add(key)
            findings.append(
                Finding(
                    path=first.path,
                    line=first.line,
                    col=first.col,
                    rule="R001",
                    message=(
                        f"handlers {'/'.join(first.callbacks)} and "
                        f"{'/'.join(second.callbacks)} (scheduled at "
                        f"{second.path}:{second.line}) may both write shared "
                        f"state {{{', '.join(sorted(overlap))}}} in the same "
                        f"instant; order them with a priority lane or document "
                        f"the commutativity"
                    ),
                )
            )
    return findings


def check_declarations(modules: list[ModuleInfo]) -> list[Finding]:
    """R002: missing module declarations and undeclared attribute writes."""
    findings: list[Finding] = []
    for module in modules:
        decls = declarations_for_module(module.tree)
        required = any(module.path.endswith(sfx) for sfx in REQUIRED_DECLARATIONS)
        if required and not decls:
            findings.append(
                Finding(
                    path=module.path,
                    line=1,
                    col=0,
                    rule="R002",
                    message=(
                        "module owns scheduler-visible shared state but "
                        "declares no __shared_state__ (see "
                        "repro.analysis.races.declarations)"
                    ),
                )
            )
            continue
        if not decls:
            continue
        for stmt in module.tree.body:
            if not isinstance(stmt, ast.ClassDef) or stmt.name not in decls:
                continue
            declared = decls[stmt.name].all_attrs
            for sub in stmt.body:
                if not isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if sub.name == "__init__":
                    continue
                findings.extend(
                    _undeclared_writes(module.path, stmt.name, sub, declared)
                )
    return findings


def _undeclared_writes(
    path: str,
    class_name: str,
    func: ast.FunctionDef | ast.AsyncFunctionDef,
    declared: frozenset[str],
) -> list[Finding]:
    findings: list[Finding] = []
    reported: set[str] = set()
    for node in ast.walk(func):
        attr: str | None = None
        if isinstance(node, ast.Attribute) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            attr = self_attr(node)
        elif isinstance(node, ast.AugAssign):
            attr = self_attr(node.target)
        elif isinstance(node, ast.Subscript) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            attr = self_attr(node.value)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and (
            node.func.attr in _MUTATOR_METHODS
        ):
            attr = self_attr(node.func.value)
        if attr is None or attr in declared or attr in reported:
            continue
        reported.add(attr)
        findings.append(
            Finding(
                path=path,
                line=node.lineno,
                col=node.col_offset,
                rule="R002",
                message=(
                    f"{class_name}.{func.name} writes self.{attr}, which is "
                    f"not in {class_name}'s __shared_state__ declaration — "
                    "declare it guarded or commutative"
                ),
            )
        )
    return findings
