"""The static L-rule checks (L001–L005).

All five work from the parsed module set plus the layer manifest; no
module is ever imported.  The dynamic sibling — L006, re-importing the
declared pure core with the platform layers blocked — lives in
:mod:`.runtime`.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import TYPE_CHECKING, Iterator

from ..findings import Finding
from ..parse import FunctionDecl, ModuleInfo, dotted_name, module_dotted
from .manifest import DECL_NAME, DEFAULT_MANIFEST, FORBIDDEN_STDLIB, LAYERS, layer_of
from .runtime import verify_import_isolation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..kernel import Facts

#: Method/attribute names whose *call* means transport or scheduling —
#: the simulator seam a pure-core function must never reach, even
#: duck-typed through an argument (which L001's import check cannot
#: see).
TRANSPORT_APIS: frozenset[str] = frozenset(
    {
        "schedule",
        "schedule_at",
        "submit",
        "send",
        "sendto",
        "send_udp",
        "recv",
        "connect",
        "deliver",
        "enqueue_packet",
    }
)

#: Dotted call roots that read the wall clock or OS entropy — the
#: purity escapes the injected Clock/Rng seams exist to replace.
_IMPURE_ROOTS: frozenset[str] = frozenset(
    {"time", "datetime", "random", "secrets", "os"}
)

#: Builtins that block on the outside world.
_IO_BUILTINS: frozenset[str] = frozenset({"open", "input", "print"})

#: Verification primitives that belong behind the core seam: an adapter
#: computing hashes is making an admission/verification decision the
#: core should own (L004).
_DECISION_PRIMITIVES: frozenset[str] = frozenset({"hashlib", "hmac"})


@dataclasses.dataclass(slots=True)
class LayeredModule:
    """One module with its resolved and declared layers."""

    info: ModuleInfo
    name: str  # dotted module name
    package: str  # dotted package relative imports resolve against
    layer: str | None  # manifest layer (longest prefix), None = unlayered
    declared: tuple[object, int] | None  # (__layer__ value, lineno)


def classify_modules(
    modules: list[ModuleInfo], manifest: dict[str, str]
) -> list[LayeredModule]:
    out: list[LayeredModule] = []
    for info in modules:
        name = module_dotted(info.path)
        if info.path.endswith("__init__.py"):
            package = name
        else:
            package = name.rpartition(".")[0]
        out.append(
            LayeredModule(
                info=info,
                name=name,
                package=package,
                layer=layer_of(name, manifest),
                declared=info.declared.layer,
            )
        )
    return out


def _resolve_from(module: LayeredModule, node: ast.ImportFrom) -> str | None:
    """Absolute dotted target of a ``from ... import`` statement."""
    if node.level == 0:
        return node.module
    parts = module.package.split(".") if module.package else []
    climb = node.level - 1
    if climb > len(parts):
        return None
    base = parts[: len(parts) - climb] if climb else parts
    if node.module:
        base = base + node.module.split(".")
    return ".".join(base) if base else None


def _imported_names(module: LayeredModule) -> Iterator[tuple[str, int]]:
    """Every absolute module name this module imports at runtime, with
    its line (``if TYPE_CHECKING:`` imports never execute).

    For ``from pkg import sub`` both ``pkg`` and ``pkg.sub`` are
    yielded: the bound name may be a submodule, and flagging the worst
    resolution is the conservative reading.
    """
    skip_lines = module.info.type_checking_lines()
    for node in module.info.nodes.of(ast.Import, ast.ImportFrom):
        if node.lineno in skip_lines:
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, node.lineno
        else:
            base = _resolve_from(module, node)
            if base is None:
                continue
            yield base, node.lineno
            for alias in node.names:
                if alias.name != "*":
                    yield f"{base}.{alias.name}", node.lineno


def check_l001(
    modules: list[LayeredModule], manifest: dict[str, str]
) -> Iterator[Finding]:
    """L001: a pure-core module imports a forbidden layer."""
    internal_roots = {prefix.split(".")[0] for prefix in manifest}
    for module in modules:
        if module.layer != "pure-core":
            continue
        seen: set[tuple[str, int]] = set()
        for target, lineno in _imported_names(module):
            target_layer = layer_of(target, manifest)
            root = target.split(".")[0]
            if target_layer == "pure-core":
                continue
            if target_layer in ("adapter", "platform"):
                reason = f"the {target_layer} layer"
            elif root in FORBIDDEN_STDLIB:
                reason = "platform stdlib"
            elif root in internal_roots:
                # an internal module no manifest prefix covers: its
                # purity is unproven, which is as bad as impure
                reason = "an unlayered internal module"
            else:
                continue
            key = (target, lineno)
            if key in seen:
                continue
            seen.add(key)
            yield Finding(
                path=module.info.path,
                line=lineno,
                col=0,
                rule="L001",
                message=(
                    f"pure-core module {module.name} imports {target} "
                    f"({reason}) — the core may only import down; "
                    "inject the capability through repro.guard.core.ports"
                ),
            )


def _call_root(node: ast.Call) -> str:
    """The leftmost dotted name of a call target, or ``""``."""
    return (dotted_name(node.func) or "").split(".", 1)[0]


def _transport_touches(decl: FunctionDecl) -> list[tuple[str, int]]:
    """Direct transport/scheduling API calls inside one function body."""
    touches: list[tuple[str, int]] = []
    for node in decl.calls:
        if isinstance(node.func, ast.Attribute) and node.func.attr in TRANSPORT_APIS:
            touches.append((node.func.attr, node.lineno))
        elif isinstance(node.func, ast.Name) and node.func.id in TRANSPORT_APIS:
            touches.append((node.func.id, node.lineno))
    return touches


#: Transport-reach propagation passes (call chains are shallow).
_REACH_PASSES = 3


def check_l002(
    modules: list[LayeredModule], manifest: dict[str, str]
) -> Iterator[Finding]:
    """L002: a pure-core function reaches a transport/scheduling API
    through the (intra-module) call graph."""
    for module in modules:
        if module.layer != "pure-core":
            continue
        info = module.info
        direct: dict[str, list[tuple[str, int]]] = {}
        for qualname, decl in info.functions.items():
            touches = _transport_touches(decl)
            if touches:
                direct[qualname] = touches
        # propagate: a function calling a toucher is itself a toucher
        reach: dict[str, tuple[str, str, int]] = {
            q: (q, api, line) for q, ts in direct.items() for api, line in ts[:1]
        }
        for _ in range(_REACH_PASSES):
            changed = False
            for qualname, decl in info.functions.items():
                if qualname in reach:
                    continue
                for callee in decl.local_callees():
                    target = info.function_named(callee)
                    if target is not None and target.qualname in reach:
                        via, api, _line = reach[target.qualname]
                        reach[qualname] = (via, api, decl.node.lineno)
                        changed = True
                        break
            if not changed:
                break
        for qualname, (via, api, line) in sorted(reach.items()):
            through = "" if via == qualname else f" through {via}"
            yield Finding(
                path=info.path,
                line=line,
                col=0,
                rule="L002",
                message=(
                    f"pure-core function {qualname} reaches "
                    f"transport/scheduling API {api}(){through} — "
                    "decisions return values; the adapter moves packets"
                ),
            )


def check_l003(
    modules: list[LayeredModule], manifest: dict[str, str]
) -> Iterator[Finding]:
    """L003: purity escapes — wall clock, OS entropy, blocking I/O or
    global mutable module state outside the injected seams."""
    for module in modules:
        if module.layer != "pure-core":
            continue
        for node in module.info.nodes.of(ast.Call):
            root = _call_root(node)
            if root in _IMPURE_ROOTS and isinstance(node.func, ast.Attribute):
                yield Finding.at(
                    module.info.path,
                    node,
                    "L003",
                    f"pure-core call {root}.{node.func.attr}() "
                    "is a purity escape — take the value "
                    "through the Clock/Rng ports instead",
                )
            elif isinstance(node.func, ast.Name) and node.func.id in _IO_BUILTINS:
                yield Finding.at(
                    module.info.path,
                    node,
                    "L003",
                    f"pure-core call {node.func.id}() performs "
                    "blocking I/O — emit through the Emit port "
                    "and let the adapter do I/O",
                )
        for stmt in module.info.tree.body:
            targets: list[ast.expr] = []
            value: ast.expr | None = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            if value is None or not _is_mutable_literal(value):
                continue
            for target in targets:
                if isinstance(target, ast.Name) and not (
                    target.id.startswith("__") and target.id.endswith("__")
                ):
                    yield Finding(
                        path=module.info.path,
                        line=stmt.lineno,
                        col=stmt.col_offset,
                        rule="L003",
                        message=(
                            f"pure-core module-level {target.id} is "
                            "global mutable state — pure decisions hold "
                            "their state in instances the adapter owns"
                        ),
                    )


def _is_mutable_literal(node: ast.expr) -> bool:
    if isinstance(node, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in {"dict", "list", "set", "defaultdict", "deque", "OrderedDict"}
    return False


def check_l004(
    modules: list[LayeredModule], manifest: dict[str, str]
) -> Iterator[Finding]:
    """L004: admission/verification decision logic in an adapter —
    statically proxied by hash-primitive use outside the core seam."""
    for module in modules:
        if module.layer != "adapter":
            continue
        for target, lineno in _imported_names(module):
            if target.split(".")[0] in _DECISION_PRIMITIVES:
                yield Finding(
                    path=module.info.path,
                    line=lineno,
                    col=0,
                    rule="L004",
                    message=(
                        f"adapter module {module.name} imports {target} "
                        "— cookie/verification computations belong in "
                        "repro.guard.core behind the seam, not in the "
                        "simulator adapter"
                    ),
                )
        for node in module.info.nodes.of(ast.Call):
            root = _call_root(node)
            if root in _DECISION_PRIMITIVES:
                yield Finding.at(
                    module.info.path,
                    node,
                    "L004",
                    f"adapter module {module.name} computes "
                    f"{root} digests inline — move the "
                    "decision into repro.guard.core and call "
                    "through the seam",
                )


def check_l005(
    modules: list[LayeredModule], manifest: dict[str, str]
) -> Iterator[Finding]:
    """L005: layer-manifest drift — undeclared module or stale
    declaration."""
    for module in modules:
        decl = module.declared
        if decl is not None:
            value, lineno = decl
            if not isinstance(value, str) or value not in LAYERS:
                yield Finding(
                    path=module.info.path,
                    line=lineno,
                    col=0,
                    rule="L005",
                    message=(
                        f"{DECL_NAME} declaration {value!r} is not one "
                        f"of {', '.join(LAYERS)}"
                    ),
                )
                continue
            if module.layer is None:
                yield Finding(
                    path=module.info.path,
                    line=lineno,
                    col=0,
                    rule="L005",
                    message=(
                        f"module {module.name} declares {DECL_NAME} = "
                        f"{value!r} but no manifest prefix covers it — "
                        "add the package to the layer manifest"
                    ),
                )
            elif value != module.layer:
                yield Finding(
                    path=module.info.path,
                    line=lineno,
                    col=0,
                    rule="L005",
                    message=(
                        f"stale declaration: module {module.name} "
                        f"declares {value!r} but the manifest places it "
                        f"in {module.layer!r}"
                    ),
                )
        elif module.name in manifest and module.info.path.endswith("__init__.py"):
            yield Finding(
                path=module.info.path,
                line=1,
                col=0,
                rule="L005",
                message=(
                    f"package {module.name} is a manifest root but its "
                    f"__init__ carries no {DECL_NAME} declaration — "
                    "packages self-describe so readers see the layer "
                    "where the code lives"
                ),
            )


#: rule id -> check over the classified module set and the manifest.
LAYER_CHECKS = {
    "L001": check_l001,
    "L002": check_l002,
    "L003": check_l003,
    "L004": check_l004,
    "L005": check_l005,
}


def check(facts: "Facts", selected: frozenset[str]) -> list[Finding]:
    """The layers family's check: the transport-purity L-rules.

    Each module's layer is resolved from the import-layering manifest (the
    run's toy manifest, else :data:`~.manifest.DEFAULT_MANIFEST`).  The
    dynamic witness — L006, importing the declared pure core with the
    platform layers blocked — lives in :mod:`.runtime` and runs only when
    the run opts in (``Facts(runtime=True)``, which the CLI does).
    """
    manifest = DEFAULT_MANIFEST if facts.manifest is None else facts.manifest
    layered = classify_modules(facts.modules, manifest)

    findings: list[Finding] = []
    for rule_id, rule_check in LAYER_CHECKS.items():
        if rule_id in selected:
            findings.extend(rule_check(layered, manifest))
    if facts.runtime and "L006" in selected:
        findings.extend(verify_import_isolation(manifest=manifest).findings)
    return findings
