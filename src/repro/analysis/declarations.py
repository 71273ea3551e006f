"""Shared loader for the module-level self-describing declarations.

Four analysis families read literal declarations off the module AST —
``__trust_boundary__`` (flow), ``__shared_state__`` (races),
``__state_bounds__`` (memory) and ``__layer__`` (layers).  All of them
share the same contract, implemented once here:

* the declaration is a **module-level literal assignment** (plain or
  annotated) to the well-known name;
* it is read **statically** with ``ast.literal_eval`` — the module is
  never imported, so declarations in broken or platform-bound modules
  still analyse;
* a non-literal or wrongly-typed value reads as *absent*: the parser
  never guesses, and each family's own rules are what report missing or
  malformed declarations with their uniform message from
  :func:`invalid_declaration_message`.

The runtime monitors (R003/R004, M006) are the one exception to "never
imported": :func:`iter_declared_classes` imports the package to find the
live classes the same declarations name.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import pkgutil
from types import ModuleType
from typing import Callable, Iterator


@dataclasses.dataclass(frozen=True, slots=True)
class ModuleLiteral:
    """One module-level literal declaration, with its source line."""

    name: str
    value: object
    lineno: int


def find_module_literal(tree: ast.AST, name: str) -> ModuleLiteral | None:
    """The first module-level ``name = <literal>`` assignment, or None.

    Non-literal right-hand sides (anything ``ast.literal_eval`` rejects)
    read as absent: declarations must be data, never computed.
    """
    for node in ast.walk(tree):
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name) and target.id == name:
                try:
                    value = ast.literal_eval(node.value)
                except ValueError:
                    return None
                return ModuleLiteral(name, value, getattr(node, "lineno", 1))
    return None


def find_declaration_dict(tree: ast.AST, name: str) -> tuple[dict, int] | None:
    """``(dict value, line)`` of a dict-valued declaration, or None.

    The common case for ``__trust_boundary__`` / ``__shared_state__`` /
    ``__state_bounds__``: a present-but-non-dict value reads as absent.
    """
    found = find_module_literal(tree, name)
    if found is None or not isinstance(found.value, dict):
        return None
    return found.value, found.lineno


def iter_declared_classes(
    package: str, name: str, parse: Callable[[object], dict]
) -> Iterator[tuple[ModuleType, type, object]]:
    """The runtime monitors' view of a declaration: import ``package``
    recursively and yield ``(module, class, parsed entry)`` once for every
    class a module-level ``name`` declaration describes.

    Modules that fail to import (optional deps, scripts) are skipped and
    empty entries ignored — the static rules are what enforce that
    declarations are present and complete.
    """
    root = importlib.import_module(package)
    module_names = [package]
    for info in pkgutil.walk_packages(root.__path__, prefix=package + "."):
        # __main__ modules run their CLI at import time — never import them
        if info.name.rsplit(".", 1)[-1] != "__main__":
            module_names.append(info.name)
    seen: set[type] = set()
    for module_name in module_names:
        try:
            module = importlib.import_module(module_name)
        except Exception:  # pragma: no cover - optional/broken module
            continue
        for class_name, entry in sorted(parse(getattr(module, name, None)).items()):
            cls = getattr(module, class_name, None)
            if isinstance(cls, type) and cls not in seen and entry:
                seen.add(cls)
                yield module, cls, entry


def invalid_declaration_message(name: str, detail: str) -> str:
    """The uniform malformed-declaration message every family shares."""
    return (
        f"{name} declaration is invalid: {detail} — declarations are "
        "module-level literals read statically; fix the literal so the "
        "analysis can trust it"
    )
