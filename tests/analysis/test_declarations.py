"""The one declaration loader, checked against the four loaders it replaced.

The bodies under "the oracle" are the parent's per-family loaders, kept
verbatim (only the record types are imported from their new home): the
shared ``find_module_literal`` walk, ``flow/trust.py``,
``races/declarations.py``, ``memory/declarations.py`` and
``layers/manifest.py::declared_layer``, plus the ``parse=`` form of
``iter_declared_classes`` the runtime monitors used.  The one loader must
return equal values for every module under ``src/`` and for a table of
malformed literals per name — and differ in exactly one place, the bug it
fixes: a nested assignment is not a module-level declaration.
"""

import ast
import dataclasses
import importlib
import pkgutil
from pathlib import Path

import pytest

from repro.analysis.declarations import (
    DEFAULT_TRUST,
    EVICTION_MECHANISMS,
    SCHEMAS,
    Declarations,
    SharedStateDecl,
    StateBound,
    TrustModel,
    load_declarations,
)
from repro.analysis.races.runtime import discover_declared_classes

REPO_SRC = Path(__file__).resolve().parents[2] / "src"


# -- the oracle: the parent's loaders, verbatim --------------------------------


@dataclasses.dataclass(frozen=True, slots=True)
class ModuleLiteral:
    name: str
    value: object
    lineno: int


def find_module_literal(tree, name):
    for node in ast.walk(tree):
        targets = []
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


def find_declaration_dict(tree, name):
    found = find_module_literal(tree, name)
    if found is None or not isinstance(found.value, dict):
        return None
    return found.value, found.lineno


_LIST_FIELDS = {
    "entry_points",
    "taint_params",
    "sanitizers",
    "sanitizer_attrs",
    "sinks",
    "secret_attrs",
    "secret_calls",
    "declassifiers",
    "exposure_sinks",
}


def trust_find_declaration(tree):
    found = find_declaration_dict(tree, "__trust_boundary__")
    return found[0] if found is not None else None


def trust_for_module(tree):
    decl = trust_find_declaration(tree)
    if decl is None:
        return DEFAULT_TRUST
    merged = {}
    merged["scheme"] = str(decl.get("scheme", ""))
    merged["assumes"] = str(decl.get("assumes", ""))
    for field in _LIST_FIELDS:
        declared = frozenset(str(item) for item in decl.get(field, ()))
        base = getattr(DEFAULT_TRUST, field)
        merged[field] = base | declared
    return TrustModel(**merged)


def races_find_declaration(tree):
    found = find_declaration_dict(tree, "__shared_state__")
    return found[0] if found is not None else None


def races_parse_declaration(raw):
    if not isinstance(raw, dict):
        return {}
    decls = {}
    for class_name, spec in raw.items():
        if not isinstance(spec, dict):
            continue
        decls[str(class_name)] = SharedStateDecl(
            class_name=str(class_name),
            guarded=frozenset(str(a) for a in spec.get("guarded", ())),
            commutative=frozenset(str(a) for a in spec.get("commutative", ())),
        )
    return decls


def races_declarations_for_module(tree):
    return races_parse_declaration(races_find_declaration(tree))


def memory_find_declaration(tree):
    return find_declaration_dict(tree, "__state_bounds__")


def memory_parse_declaration(raw):
    if not isinstance(raw, dict):
        return {}
    decls = {}
    for class_name, attrs in raw.items():
        if not isinstance(attrs, dict):
            continue
        per_class = {}
        for attr, spec in attrs.items():
            if not isinstance(spec, dict):
                continue
            try:
                bound = int(spec.get("bound", 0))
            except (TypeError, ValueError):
                continue
            mechanisms = frozenset(
                part.strip()
                for part in str(spec.get("evicted_by", "")).split("+")
                if part.strip()
            )
            per_class[str(attr)] = StateBound(
                class_name=str(class_name),
                attr=str(attr),
                bound=bound,
                evicted_by=mechanisms & EVICTION_MECHANISMS,
                keyed_by=str(spec.get("keyed_by", "internal")),
            )
        decls[str(class_name)] = per_class
    return decls


def memory_declarations_for_module(tree):
    found = memory_find_declaration(tree)
    if found is None:
        return None
    raw, lineno = found
    return memory_parse_declaration(raw), lineno


def declared_layer(tree):
    literal = find_module_literal(tree, "__layer__")
    if literal is None:
        return None
    return literal.value, literal.lineno


def iter_declared_classes(package, name, parse):
    root = importlib.import_module(package)
    module_names = [package]
    for info in pkgutil.walk_packages(root.__path__, prefix=package + "."):
        if info.name.rsplit(".", 1)[-1] != "__main__":
            module_names.append(info.name)
    seen = set()
    for module_name in module_names:
        try:
            module = importlib.import_module(module_name)
        except Exception:
            continue
        for class_name, entry in sorted(parse(getattr(module, name, None)).items()):
            cls = getattr(module, class_name, None)
            if isinstance(cls, type) and cls not in seen and entry:
                seen.add(cls)
                yield module, cls, entry


def oracle(tree) -> Declarations:
    """The four old loaders' answers, in the one loader's record."""
    return Declarations(
        trust=trust_for_module(tree),
        shared_state=races_declarations_for_module(tree),
        state_bounds=memory_declarations_for_module(tree),
        layer=declared_layer(tree),
    )


# -- equality ------------------------------------------------------------------


def test_one_loader_matches_the_four_over_every_module_under_src():
    declaring = dict.fromkeys(SCHEMAS, 0)
    for path in sorted(REPO_SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        loaded = load_declarations(tree)
        assert loaded == oracle(tree), path
        for name, schema in SCHEMAS.items():
            declaring[name] += getattr(loaded, schema.field) != getattr(
                Declarations(), schema.field
            )
    # the comparison is not vacuous: every schema has declaring modules
    assert all(declaring.values()), declaring


#: per declaration name: absent, non-literal, wrong type, partial, valid
MALFORMED = {
    "__trust_boundary__": [
        "x = 1",
        "__trust_boundary__ = build()",
        "__trust_boundary__ = ['sinks']",
        "__trust_boundary__ = {'sinks': ['send'], 'secret_attrs': []}",
        "__trust_boundary__: dict = {'scheme': 's', 'entry_points': ['G.h'],"
        " 'taint_params': ['packet'], 'sanitizers': ['verify'], 'sinks': ['send']}",
    ],
    "__shared_state__": [
        "x = 1",
        "__shared_state__ = {'G': make()}",
        "__shared_state__ = 'G'",
        "__shared_state__ = {'G': {'guarded': ['t']}, 'H': 3}",
        "__shared_state__ = {'G': {'guarded': ['t'], 'commutative': ['hits']}}",
    ],
    "__state_bounds__": [
        "x = 1",
        "__state_bounds__ = dict(G={})",
        "__state_bounds__ = [('G', 't', 4)]",
        "__state_bounds__ = {'G': {'t': {'bound': 'many'}, 'u': 'nope',"
        " 'v': {'bound': 2, 'evicted_by': 'cap+teleport'}}, 'H': 3}",
        "\n\n__state_bounds__ = {'G': {'t': {'bound': 4, 'evicted_by':"
        " 'sweep+cap', 'keyed_by': 'attacker'}}}",
    ],
    "__layer__": [
        "x = 1",
        "__layer__ = pick()",
        "__layer__ = 3",
        "__layer__ = None",
        "'''doc'''\n__layer__ = 'pure-core'",
    ],
}


@pytest.mark.parametrize(
    "source",
    [source for sources in MALFORMED.values() for source in sources]
    + [
        # the first assignment decides, even when a later one is valid
        "__layer__ = pick()\n__layer__ = 'adapter'",
        "__shared_state__ = 3\n__shared_state__ = {'G': {'guarded': ['t']}}",
        # an annotation without a value assigns nothing
        "__layer__: str\n__layer__ = 'platform'",
        "a = __layer__ = 'adapter'",
    ],
)
def test_one_loader_matches_the_four_on_malformed_literals(source):
    tree = ast.parse(source)
    assert load_declarations(tree) == oracle(tree)


def test_malformed_table_covers_every_schema():
    assert set(MALFORMED) == set(SCHEMAS)
    for name, sources in MALFORMED.items():
        valid = load_declarations(ast.parse(sources[-1]))
        assert valid != Declarations(), name
        for source in sources[:2]:
            assert load_declarations(ast.parse(source)) == Declarations(), source
    # a wrongly-typed dict declaration reads as absent; a wrongly-typed
    # __layer__ is kept as-is for L005 to reject
    for name in ("__trust_boundary__", "__shared_state__", "__state_bounds__"):
        assert load_declarations(ast.parse(MALFORMED[name][2])) == Declarations()
    assert load_declarations(ast.parse(MALFORMED["__layer__"][2])).layer == (3, 1)


# -- the one place the loaders differ: nested assignments ----------------------


@pytest.mark.parametrize(
    "source",
    [
        "class C:\n    __layer__ = 'pure-core'\n",
        "def f():\n    __state_bounds__ = {'G': {'t': {'bound': 1}}}\n",
        "def f():\n    __shared_state__ = {'G': {'guarded': ['t']}}\n",
        "def f():\n    __trust_boundary__ = {'scheme': 's', 'sinks': ['send']}\n",
        "if flag:\n    __layer__ = 'adapter'\n",
    ],
)
def test_nested_assignment_is_not_a_module_level_declaration(source):
    tree = ast.parse(source)
    assert load_declarations(tree) == Declarations()
    # ...which the walk-based loaders read as the module's own declaration
    assert oracle(tree) != Declarations()


# -- the runtime monitor discovers the same classes ----------------------------


def test_interference_monitor_watches_the_same_classes():
    old = [
        (cls, decl)
        for _module, cls, decl in iter_declared_classes(
            "repro", "__shared_state__", races_parse_declaration
        )
    ]
    assert discover_declared_classes() == old
    assert old, "the repo declares shared state"
