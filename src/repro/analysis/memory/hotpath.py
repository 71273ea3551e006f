"""Hot-set inference: which functions run per event.

M001 and M003 need to know where attacker packets execute and which
sweeps a scheduler actually reaches.  The *hot set* answers both: the
transitive call-graph closure of the code that runs once per simulated
event.  Its roots are static: every callback the source tree passes to
``Simulator.schedule`` / ``schedule_at`` / ``Cpu.submit`` (resolved with
the same self-attribute / subclass-closure / name-index machinery the
races layer uses), plus ``Node.receive``, the per-packet entry point every
link delivery funnels through.  A callback that reaches the scheduler only
through a variable (``cpu.submit(cost, fn, *args)`` where ``fn`` is a
parameter) is outside the set.

Propagation through callees is a *may* analysis: an ambiguous bare name
(``demux`` is both ``UdpStack.demux`` and ``TcpStack.demux``) marks every
candidate hot, bounded by :data:`_MAX_CANDIDATES` so hub names like
``send`` or ``start`` do not drag the whole tree into the hot set.
"""

from __future__ import annotations

import ast

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

#: Calls that take a per-event callback.  ``submit`` is the CPU-queue idiom
#: ``cpu.submit(cost, fn, *args)``; like the scheduler entry points it takes
#: the callable second.
CALLBACK_TAKERS = SCHEDULE_NAMES | {"submit"}

#: Functions that are per-packet entry points even when no schedule site
#: resolves to them statically (link deliveries schedule ``receiver.receive``
#: through a variable the static pass cannot see).
ALWAYS_HOT_QUALNAMES = frozenset({"Node.receive"})

#: Cross-module bare-name fan-out cap: a name with more candidates than
#: this is a hub (``send``, ``start``, ``close``) and is left unresolved
#: rather than marking half the tree hot.
_MAX_CANDIDATES = 3

#: Call-graph propagation depth cap (handler chains are shallow).
_MAX_DEPTH = 12


def _resolve(
    index: NameIndex, module: ModuleInfo, enclosing_class: str | None, name: str
) -> list[tuple[ModuleInfo, FunctionDecl]]:
    """Bare-name callee resolution with bounded may-analysis fan-out."""
    bare = name.rsplit(".", 1)[-1]
    if enclosing_class is not None:
        own = module.functions.get(f"{enclosing_class}.{bare}")
        if own is not None:
            return [(module, own)]
    local = module.function_named(bare)
    if local is not None:
        return [(module, local)]
    foreign = [c for c in index.by_name.get(bare, []) if c[0] is not module]
    return foreign if len(foreign) <= _MAX_CANDIDATES else []


def _callback_calls(decl: FunctionDecl) -> list[ast.Call]:
    """Scheduler calls (``schedule``/``schedule_at``/``submit``) in ``decl``
    that pass a callback positionally."""
    sites: list[ast.Call] = []
    for call in decl.calls:
        if call_name(call).rsplit(".", 1)[-1] in CALLBACK_TAKERS and len(call.args) > 1:
            sites.append(call)
    return sites


def _static_roots(
    modules: list[ModuleInfo], index: NameIndex
) -> list[tuple[ModuleInfo, FunctionDecl]]:
    """(module, function) for every statically-visible root."""
    roots: list[tuple[ModuleInfo, FunctionDecl]] = []

    def add_resolved(
        module: ModuleInfo, enclosing: str | None, callback: ast.expr
    ) -> None:
        attr = self_attr(callback)
        if attr is not None and enclosing is not None:
            closure = closures.get(module.path, {})
            for class_name in sorted(closure.get(enclosing, {enclosing})):
                qualname = f"{class_name}.{attr}"
                decl = module.functions.get(qualname)
                if decl is not None:
                    roots.append((module, decl))
            return
        name = dotted_name(callback)
        if name is None:
            return
        roots.extend(_resolve(index, module, None, name))

    closures = {m.path: m.subclass_closure() for m in modules}
    for module in modules:
        for decl in module.functions.values():
            enclosing = class_of(decl.qualname)
            for site in _callback_calls(decl):
                callback = site.args[1]
                if isinstance(callback, ast.Lambda):
                    # the lambda body runs per event: everything it calls
                    # is a root
                    for inner in lambda_decl(callback).calls:
                        add_resolved(module, enclosing, inner.func)
                    continue
                add_resolved(module, enclosing, callback)
        for qualname in ALWAYS_HOT_QUALNAMES:
            decl = module.functions.get(qualname)
            if decl is not None:
                roots.append((module, decl))
    return roots


def hot_set(
    modules: list[ModuleInfo], index: NameIndex | None = None
) -> dict[tuple[str, str], int]:
    """The hot set: the static roots, closed over resolvable callees.

    Maps ``(path, qualname)`` to the function's call-graph hops from its
    nearest root.  ``index`` reuses the run's shared name index instead of
    building one.
    """
    index = index if index is not None else NameIndex(modules)
    depths: dict[tuple[str, str], int] = {}
    decls: dict[tuple[str, str], tuple[ModuleInfo, FunctionDecl]] = {}
    worklist: list[tuple[str, str]] = []

    def admit(module: ModuleInfo, decl: FunctionDecl, depth: int) -> None:
        key = (module.path, decl.qualname)
        if key in depths:
            # keep the shortest path
            depths[key] = min(depths[key], depth)
            return
        depths[key] = depth
        decls[key] = (module, decl)
        worklist.append(key)

    for module, decl in _static_roots(modules, index):
        admit(module, decl, 0)

    while worklist:
        key = worklist.pop()
        depth = depths[key]
        if depth >= _MAX_DEPTH:
            continue
        module, decl = decls[key]
        enclosing = class_of(decl.qualname)
        for name in sorted(decl.callees()):
            for callee_module, callee in _resolve(index, module, enclosing, name):
                admit(callee_module, callee, depth + 1)

    return depths
