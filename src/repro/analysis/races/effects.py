"""Static effect inference over scheduled callbacks (R001/R002).

For every callback the source tree passes to ``Simulator.schedule`` /
``schedule_at`` we compute a may-read/may-write *effect set* over the
shared-state cells declared via ``__shared_state__`` (see
:mod:`repro.analysis.declarations`).  A static cell is class-qualified —
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
from typing import TYPE_CHECKING, Iterable, Iterator

from ..findings import Finding
from ..parse import (
    SCHEDULE_NAMES,
    FunctionDecl,
    ModuleInfo,
    NameIndex,
    call_name,
    class_of,
    dotted_name,
    lambda_decl,
    self_attr,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..kernel import Facts

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


def _watched_cells(modules: list[ModuleInfo]) -> tuple[frozenset[str], frozenset[str]]:
    """(all declared cells, the commutative subset), class-qualified.

    A static cell is ``"ClassName.attr"`` — qualified by the *declaring*
    class so two classes that happen to share an attribute name (both
    guards keep a ``_sweeper`` handle) never alias.
    """
    watched: set[str] = set()
    commutative: set[str] = set()
    for module in modules:
        for decl in module.declared.shared_state.values():
            for attr in decl.guarded:
                watched.add(f"{decl.class_name}.{attr}")
            for attr in decl.commutative:
                cell = f"{decl.class_name}.{attr}"
                watched.add(cell)
                commutative.add(cell)
    return frozenset(watched), frozenset(commutative)


def _self_writes(decl: FunctionDecl) -> Iterator[tuple[ast.AST, str]]:
    """``(node, attr)`` for every write to ``self.attr`` in ``decl``, in walk
    order: stores and deletes of the attribute or of a subscript of it,
    augmented assignments, and mutator-method calls on it."""
    for node in decl.nodes.of(ast.Attribute, ast.Subscript, ast.AugAssign, ast.Call):
        attr: str | None = None
        if isinstance(node, (ast.Attribute, ast.Subscript)):
            if isinstance(node.ctx, (ast.Store, ast.Del)):
                attr = self_attr(node if isinstance(node, ast.Attribute) else node.value)
        elif isinstance(node, ast.AugAssign):
            attr = self_attr(node.target)
        elif isinstance(node.func, ast.Attribute) and node.func.attr in _MUTATOR_METHODS:
            attr = self_attr(node.func.value)
        if attr is not None:
            yield node, attr


def _direct_effects(
    decl: FunctionDecl, watched: frozenset[str], class_name: str | None
) -> tuple[EffectSet, frozenset[str]]:
    """(direct effects on watched cells, bare callee names) for one function.

    ``class_name`` qualifies ``self.X`` accesses: a method of ``C`` touches
    cell ``"C.X"``, which only counts when that exact cell is declared.
    """

    def cells(attrs: Iterable[str | None]) -> frozenset[str]:
        if class_name is None:
            return frozenset()
        return watched & {f"{class_name}.{attr}" for attr in attrs if attr is not None}

    writes = cells(attr for _, attr in _self_writes(decl))
    # an augmented assignment reads what it writes; a mutator call's
    # receiver is itself a load of ``self.attr``
    reads = cells(
        [self_attr(n) for n in decl.nodes.of(ast.Attribute) if isinstance(n.ctx, ast.Load)]
        + [self_attr(n.target) for n in decl.nodes.of(ast.AugAssign)]
    )
    return EffectSet(reads, writes), frozenset(decl.callees())


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
            closure = module.subclass_closure()
            for decl in module.functions.values():
                enclosing = class_of(decl.qualname)
                for node in decl.calls:
                    suffix = call_name(node).rsplit(".", 1)[-1]
                    if suffix not in SCHEDULE_NAMES or len(node.args) < 2:
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
            effect, _ = _direct_effects(lambda_decl(callback), self.watched, enclosing)
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


def collect_schedule_sites(
    modules: list[ModuleInfo], index: NameIndex
) -> tuple[list[ScheduleSite], frozenset[str]]:
    """(resolved schedule sites, commutative attr names) for ``modules``."""
    watched, commutative = _watched_cells(modules)
    effects = build_effects(modules, index, watched)
    sites = _SiteCollector(modules, index, effects, watched).collect()
    return sites, commutative


def _guarded_writes(site: ScheduleSite, commutative: frozenset[str]) -> frozenset[str]:
    return site.effects.writes - commutative


def check_write_overlaps(
    sites: list[ScheduleSite], commutative: frozenset[str]
) -> Iterator[Finding]:
    """R001: same-lane handler pairs with overlapping guarded write sets."""
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
            yield Finding(
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


def check_declarations(modules: list[ModuleInfo]) -> Iterator[Finding]:
    """R002: missing module declarations and undeclared attribute writes."""
    for module in modules:
        decls = module.declared.shared_state
        required = any(module.path.endswith(sfx) for sfx in REQUIRED_DECLARATIONS)
        if required and not decls:
            yield Finding(
                path=module.path,
                line=1,
                col=0,
                rule="R002",
                message=(
                    "module owns scheduler-visible shared state but "
                    "declares no __shared_state__ (see "
                    "repro.analysis.declarations)"
                ),
            )
            continue
        if not decls:
            continue
        for decl in module.defs:
            class_name = class_of(decl.qualname)
            if class_name not in decls or decl.node.name == "__init__":
                continue
            yield from _undeclared_writes(
                module.path, class_name, decl, decls[class_name].all_attrs
            )


def _undeclared_writes(
    path: str,
    class_name: str,
    func: FunctionDecl,
    declared: frozenset[str],
) -> Iterator[Finding]:
    reported: set[str] = set()
    for node, attr in _self_writes(func):
        if attr in declared or attr in reported:
            continue
        reported.add(attr)
        yield Finding.at(
            path,
            node,
            "R002",
            f"{func.qualname} writes self.{attr}, which is "
            f"not in {class_name}'s __shared_state__ declaration — "
            "declare it guarded or commutative",
        )


def check(facts: "Facts", selected: frozenset[str]) -> list[Finding]:
    """The races family's check: the static simultaneity rules R001/R002.

    R003/R004 are *runtime* rules: the registry knows them so the SARIF
    export, the README rule table and ``--rules`` selection do, but their
    findings come from the dynamic interference monitor (:mod:`.runtime`,
    ``python -m repro <cmd> --races``), never from this function.
    """
    findings: list[Finding] = []
    if "R001" in selected:
        sites, commutative = collect_schedule_sites(facts.modules, facts.index)
        findings.extend(check_write_overlaps(sites, commutative))
    if "R002" in selected:
        findings.extend(check_declarations(facts.modules))
    return findings
