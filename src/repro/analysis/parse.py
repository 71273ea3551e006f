"""The shared parse record: each source is parsed once and walked once.

:func:`parse_module` is the only place a tree is traversed.  It runs
``ast.parse``, reads the four self-describing declarations off
``tree.body`` (:mod:`.declarations`) and indexes the tree in a single
breadth-first pass — every node in ``ast.walk`` order, grouped by type,
with every function the analyses address (:class:`FunctionDecl`) owning
the nodes under its ``def``.  Rules iterate that index
(``module.nodes.of(ast.Call)``, ``decl.calls``) instead of re-walking;
because the index preserves ``ast.walk`` order, first-match and dedupe
behaviour is what a fresh walk would give.  The only ``ast.walk`` a rule
still needs is over a sub-expression or a single statement it has
already reached.
"""

from __future__ import annotations

import ast
import collections
import dataclasses
import itertools
from pathlib import Path
from typing import Iterable

from .declarations import Declarations, load_declarations
from .engine import iter_python_files


#: The simulator's scheduling entry points, matched on a call's dotted
#: suffix by every family that reasons about scheduled callbacks; all of
#: them take the callback as their second positional argument.
SCHEDULE_NAMES = frozenset({"schedule", "schedule_at"})


def module_dotted(path: str | Path) -> str:
    """Dotted module name for a source path (``src/repro/a/b.py`` ->
    ``repro.a.b``); tmp-dir toy modules fall back to their bare stem."""
    parts = list(Path(path).parts)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts.pop()
    if "src" in parts:
        parts = parts[len(parts) - parts[::-1].index("src"):]
        return ".".join(parts)
    return parts[-1] if parts else ""


def dotted_name(node: ast.expr) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def call_name(node: ast.Call) -> str:
    """The call's dotted name with a leading ``self.``/``cls.`` stripped."""
    name = dotted_name(node.func) or ""
    for prefix in ("self.", "cls."):
        if name.startswith(prefix):
            return name[len(prefix):]
    return name


def self_attr(node: ast.expr) -> str | None:
    """``self.X``/``cls.X`` -> ``X`` (one attribute hop only)."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in ("self", "cls")
    ):
        return node.attr
    return None


def class_of(qualname: str) -> str | None:
    """The enclosing class of a ``Class.method`` qualname, else None."""
    return qualname.split(".", 1)[0] if "." in qualname else None


class Nodes:
    """The nodes under one root, in ``ast.walk`` order, grouped by type."""

    __slots__ = ("_all", "_by_type")

    def __init__(self) -> None:
        self._all: list[ast.AST] = []
        #: node type -> positions in ``_all`` (ascending)
        self._by_type: dict[type, list[int]] = {}

    def _add(self, node: ast.AST) -> None:
        self._by_type.setdefault(type(node), []).append(len(self._all))
        self._all.append(node)

    def __len__(self) -> int:
        return len(self._all)

    def of(self, *types: type) -> list:
        """Every node of one of ``types``, in walk order."""
        groups = [self._by_type.get(node_type, ()) for node_type in types]
        order = groups[0] if len(groups) == 1 else sorted(itertools.chain(*groups))
        return [self._all[position] for position in order]


@dataclasses.dataclass(slots=True)
class FunctionDecl:
    """One function/method as the analyser sees it."""

    qualname: str  # "Class.method" or bare "function"
    node: ast.FunctionDef | ast.AsyncFunctionDef
    params: list[str]
    #: the nodes ``ast.walk(node)`` would yield, filled by the one walk
    nodes: Nodes = dataclasses.field(default_factory=Nodes)

    @property
    def calls(self) -> list[ast.Call]:
        """Every call under this function — the one per-function call list."""
        return self.nodes.of(ast.Call)

    def callees(self) -> set[str]:
        """The :func:`call_name` of every named call under this function."""
        return {name for name in map(call_name, self.calls) if name}

    def local_callees(self) -> list[str]:
        """The callees that can name a same-module helper, sorted: a
        dotless call name is a bare function or a ``self.helper()``."""
        return sorted(name for name in self.callees() if "." not in name)


def lambda_decl(node: ast.Lambda) -> FunctionDecl:
    """A lambda wrapped as a function, so per-function code can read it."""
    wrapper = ast.FunctionDef(
        name="<lambda>",
        args=node.args,
        body=[ast.Return(value=node.body)],
        decorator_list=[],
        returns=None,
        type_params=[],
    )
    ast.fix_missing_locations(ast.copy_location(wrapper, node))
    return FunctionDecl("<lambda>", wrapper, [], _index(wrapper))


@dataclasses.dataclass(slots=True)
class ModuleInfo:
    """One parsed module: its tree, node index, functions and declarations."""

    path: str
    source: str
    tree: ast.Module
    nodes: Nodes
    #: every top-level function and top-level-class method, in source order
    defs: list[FunctionDecl]
    #: qualname -> the first ``def`` carrying it (a redefinition is shadowed
    #: here but still listed in ``defs``)
    functions: dict[str, FunctionDecl]
    declared: Declarations

    def function_named(self, name: str) -> FunctionDecl | None:
        """Resolve a bare callee name inside this module: prefer a
        module-level function, else a unique method of any class."""
        decl = self.functions.get(name)
        if decl is not None:
            return decl
        matches = [
            d for q, d in self.functions.items() if q.endswith("." + name)
        ]
        return matches[0] if len(matches) == 1 else None

    def type_checking_lines(self) -> set[int]:
        """Line numbers inside ``if TYPE_CHECKING:`` blocks — typing-only
        imports never execute, so they are neither runtime randomness
        (D002) nor a layering violation (L001/L004)."""
        lines: set[int] = set()
        for node in self.nodes.of(ast.If):
            name = dotted_name(node.test) or ""
            if name.rsplit(".", 1)[-1] == "TYPE_CHECKING":
                for stmt in node.body:
                    lines.update(range(stmt.lineno, (stmt.end_lineno or stmt.lineno) + 1))
        return lines

    def subclass_closure(self) -> dict[str, set[str]]:
        """class name -> {itself and every (transitive) same-module subclass}."""
        bases: dict[str, set[str]] = {}
        for stmt in self.tree.body:
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


def _collect_defs(tree: ast.Module) -> list[FunctionDecl]:
    defs: list[FunctionDecl] = []

    def add(node: ast.FunctionDef | ast.AsyncFunctionDef, prefix: str) -> None:
        qualname = f"{prefix}.{node.name}" if prefix else node.name
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        defs.append(FunctionDecl(qualname, node, params))

    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            add(stmt, "")
        elif isinstance(stmt, ast.ClassDef):
            for sub in stmt.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    add(sub, stmt.name)
    return defs


def _index(root: ast.AST, defs: Iterable[FunctionDecl] = ()) -> Nodes:
    """The one walk: ``ast.walk`` order from ``root``, each node also filed
    under the :class:`FunctionDecl` of ``defs`` whose ``def`` encloses it.

    Breadth-first order restricted to a subtree is breadth-first order
    *of* that subtree, so each function's slice is exactly what
    ``ast.walk(decl.node)`` would yield.
    """
    everything = Nodes()
    owners = {decl.node: decl.nodes for decl in defs}
    queue: collections.deque[tuple[ast.AST, Nodes | None]] = collections.deque(
        [(root, None)]
    )
    while queue:
        node, owner = queue.popleft()
        owner = owners.get(node, owner)
        everything._add(node)
        if owner is not None:
            owner._add(node)
        for child in ast.iter_child_nodes(node):
            queue.append((child, owner))
    return everything


def parse_module(
    path: str, source: str, broken: list[tuple[str, str, SyntaxError]] | None = None
) -> ModuleInfo | None:
    """Parse and index one source into a :class:`ModuleInfo`.

    A source that fails to parse yields ``None`` — the run reports it as
    E999 from the ``(path, source, error)`` triple appended to ``broken``.
    """
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        if broken is not None:
            broken.append((path, source, exc))
        return None
    defs = _collect_defs(tree)
    functions: dict[str, FunctionDecl] = {}
    for decl in defs:
        functions.setdefault(decl.qualname, decl)
    return ModuleInfo(
        path=path,
        source=source,
        tree=tree,
        nodes=_index(tree, defs),
        defs=defs,
        functions=functions,
        declared=load_declarations(tree),
    )


def load_modules(
    paths: Iterable[str | Path],
    broken: list[tuple[str, str, SyntaxError]] | None = None,
) -> list[ModuleInfo]:
    """:func:`parse_module` every Python file under ``paths`` (unparsable
    files are skipped, and recorded in ``broken``)."""
    modules: list[ModuleInfo] = []
    for file_path in iter_python_files(paths):
        source = file_path.read_text(encoding="utf-8", errors="replace")
        module = parse_module(str(file_path), source, broken)
        if module is not None:
            modules.append(module)
    return modules


class NameIndex:
    """Cross-module callee resolution by bare name (unique matches only)."""

    def __init__(self, modules: list[ModuleInfo]):
        self.modules = modules
        #: bare function/method name -> every (module, decl) defining it
        self.by_name: dict[str, list[tuple[ModuleInfo, FunctionDecl]]] = {}
        for module in modules:
            for qualname, decl in module.functions.items():
                bare = qualname.rsplit(".", 1)[-1]
                self.by_name.setdefault(bare, []).append((module, decl))

    def resolve(
        self, caller: ModuleInfo, callee: str
    ) -> tuple[ModuleInfo, FunctionDecl] | None:
        """Same module first; else a unique cross-module match."""
        bare = callee.rsplit(".", 1)[-1]
        local = caller.function_named(bare)
        if local is not None:
            return (caller, local)
        candidates = self.by_name.get(bare, [])
        foreign = [c for c in candidates if c[0] is not caller]
        return foreign[0] if len(foreign) == 1 else None
