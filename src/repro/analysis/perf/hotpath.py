"""Hot-path inference: which functions run per-event.

The perf rules only fire inside the *hot set* — the transitive call-graph
closure of the code that runs once per simulated event.  Its roots are
static: every callback the source tree passes to ``Simulator.schedule`` /
``schedule_at`` / ``Cpu.submit`` (resolved with the same self-attribute /
subclass-closure / name-index machinery the races layer uses), plus
``Node.receive``, the per-packet entry point every link delivery funnels
through.  A callback that reaches the scheduler only through a variable
(``cpu.submit(cost, fn, *args)`` where ``fn`` is a parameter) is outside
the set.

Propagation through callees is a *may* analysis: an ambiguous bare name
(``demux`` is both ``UdpStack.demux`` and ``TcpStack.demux``) marks every
candidate hot, bounded by :data:`_MAX_CANDIDATES` so hub names like
``send`` or ``start`` do not drag the whole tree into the hot set.
"""

from __future__ import annotations

import ast
import dataclasses

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


@dataclasses.dataclass(slots=True)
class HotFunction:
    """One function in the hot set and the evidence that put it there."""

    module: ModuleInfo
    decl: FunctionDecl
    root: str  # qualname of the entry root this was reached from
    depth: int  # call-graph hops from that root

    def describe(self) -> str:
        """Stable hot-evidence label for finding messages (a baseline key)."""
        if self.depth == 0:
            return f"hot path root {self.root}"
        return f"hot path via {self.root}"


class HotPaths:
    """The hot set for one analysis run, keyed by ``(path, qualname)``."""

    def __init__(self, functions: dict[tuple[str, str], HotFunction]):
        self.functions = functions


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


def callback_calls(decl: FunctionDecl) -> list[ast.Call]:
    """Scheduler calls (``schedule``/``schedule_at``/``submit``) in ``decl``
    that pass a callback positionally."""
    sites: list[ast.Call] = []
    for call in decl.calls:
        if call_name(call).rsplit(".", 1)[-1] in CALLBACK_TAKERS and len(call.args) > 1:
            sites.append(call)
    return sites


def _static_roots(
    modules: list[ModuleInfo], index: NameIndex
) -> list[tuple[ModuleInfo, FunctionDecl, str]]:
    """(module, function, root label) for every statically-visible root."""
    roots: list[tuple[ModuleInfo, FunctionDecl, str]] = []

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
                    roots.append((module, decl, qualname))
            return
        name = dotted_name(callback)
        if name is None:
            return
        for target_module, target_decl in _resolve(index, module, None, name):
            roots.append((target_module, target_decl, target_decl.qualname))

    closures = {m.path: m.subclass_closure() for m in modules}
    for module in modules:
        for decl in module.functions.values():
            enclosing = class_of(decl.qualname)
            for site in callback_calls(decl):
                callback = site.args[1]
                if isinstance(callback, ast.Lambda):
                    # the lambda body runs per event: everything it calls
                    # is a root (the closure itself is P003's business)
                    for inner in lambda_decl(callback).calls:
                        add_resolved(module, enclosing, inner.func)
                    continue
                add_resolved(module, enclosing, callback)
        for qualname in ALWAYS_HOT_QUALNAMES:
            decl = module.functions.get(qualname)
            if decl is not None:
                roots.append((module, decl, qualname))
    return roots


def compute_hot_paths(
    modules: list[ModuleInfo], index: NameIndex | None = None
) -> HotPaths:
    """The hot set: the static roots, closed over resolvable callees.

    ``index`` reuses the run's shared name index instead of building one.
    """
    index = index if index is not None else NameIndex(modules)
    hot: dict[tuple[str, str], HotFunction] = {}
    worklist: list[tuple[str, str]] = []

    def admit(module: ModuleInfo, decl: FunctionDecl, root: str, depth: int) -> None:
        key = (module.path, decl.qualname)
        existing = hot.get(key)
        if existing is not None:
            # keep the shortest path
            if depth < existing.depth:
                existing.root, existing.depth = root, depth
            return
        hot[key] = HotFunction(module=module, decl=decl, root=root, depth=depth)
        worklist.append(key)

    for module, decl, label in _static_roots(modules, index):
        admit(module, decl, label, 0)

    while worklist:
        key = worklist.pop()
        entry = hot[key]
        if entry.depth >= _MAX_DEPTH:
            continue
        enclosing = class_of(entry.decl.qualname)
        for name in sorted(entry.decl.callees()):
            for module, decl in _resolve(index, entry.module, enclosing, name):
                admit(module, decl, entry.root, entry.depth + 1)

    return HotPaths(hot)
