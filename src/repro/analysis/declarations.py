"""The module-level self-describing declarations: four schemas, one loader.

Four analysis families read literal declarations off the module AST —
``__trust_boundary__`` (flow), ``__shared_state__`` (races),
``__state_bounds__`` (memory) and ``__layer__`` (layers).  All of them
share one contract, implemented once in :func:`load_declarations`:

* the declaration is a **module-level literal assignment** (plain or
  annotated) to the well-known name — a statement of ``tree.body``; a
  class attribute or a function local of the same name declares nothing;
* it is read **statically** with ``ast.literal_eval`` — the module is
  never imported, so declarations in broken or platform-bound modules
  still analyse;
* the first assignment decides, and a non-literal or wrongly-typed value
  reads as *absent*: the loader never guesses, and each family's own
  rules are what report missing or malformed declarations.

:data:`SCHEMAS` is the table of the four names; the typed result
(:class:`Declarations`) rides on the shared parse record
(``ModuleInfo.declared``), so every family reads the same load.  The
runtime monitors (R003/R004, M006) are the one exception to "never
imported": :func:`iter_declared_classes` imports the package to find the
live classes the same declarations name, and normalises them through the
same schema.

``__trust_boundary__`` — a guard scheme's trust boundary (T-rules)::

    __trust_boundary__ = {
        "scheme": "modified",
        "entry_points": ["RemoteDnsGuard._handle_ans_query"],
        "taint_params": ["packet", "datagram", "message"],
        "sanitizers": ["cookies.verify", "policy_for"],
        "sinks": ["_strip_and_forward", "_safe_send"],
        "assumes": "free-text statement of what is trusted and why",
    }

``entry_points``
    Qualified function names (``Class.method`` or bare function name)
    whose ``taint_params`` parameters carry attacker-controlled data.
    Helpers reached from entry points are covered by call summaries, so
    they are *not* listed — listing a helper would double-report.
``taint_params``
    Parameter names bound to attacker-controlled values at entry points.
``sanitizers``
    Call names (matched on their dotted suffix) whose return value is
    trusted evidence: branching on it, or an early return guarded by its
    negation, *launders* the dominated region.  These are the paper's
    cookie verify / SYN-cookie validate / ISN echo check — plus explicit
    operator decisions such as a per-source policy lookup.
``sinks``
    Call names that admit a request toward the protected server.  A sink
    reached with tainted data or under tainted control, with no sanitizer
    dominating it, is a T001 finding.  A sink name appearing as a *call
    argument* (the ``submit(cost, fn, *args)`` callback idiom) is treated
    as a sink call over the remaining arguments.
``sanitizer_attrs``
    Attribute names whose value is sanitizer evidence rather than a call
    result — e.g. ``iss`` in the TCP stack: comparing ``segment.ack``
    against ``self.iss + 1`` *is* the ISN echo check, with no function to
    register.
``secret_calls`` / ``secret_attrs`` / ``declassifiers`` / ``exposure_sinks``
    Extra names for T002, merged with the defaults below.
``assumes``
    Documentation only: the trust assumption the declaration encodes.

``__shared_state__`` — simultaneity-sensitive state (R-rules)::

    __shared_state__ = {
        "RemoteDnsGuard": {
            "guarded": ["_pending", "_answer_cache", "down"],
            "commutative": ["queries_seen", "invalid_drops"],
        },
    }

``guarded``
    Attributes whose value two same-instant handlers must not race on:
    soft-state tables (cookie caches, pending-verification maps, TCP
    connection buckets), mode flags, timer handles.  Any write/write or
    read/write overlap inside a tie group is a finding.
``commutative``
    Attributes whose concurrent updates commute by construction —
    monotone counters and gauges (``x += 1`` from two handlers yields the
    same state in either order).  They are tracked for declaration
    completeness (R002) but exempt from the conflict rules R001/R003/R004.

Attributes not listed at all are *undeclared*: the static pass flags
writes to them from scheduled code in declared classes (R002), forcing
the declaration to stay complete as the class grows.

``__state_bounds__`` — long-lived collections (M-rules)::

    __state_bounds__ = {
        "RemoteDnsGuard": {
            "_pending": {
                "bound": 4096,
                "evicted_by": "sweep+cap",
                "keyed_by": "attacker",
            },
        },
    }

``bound``
    The maximum number of entries the collection may ever hold.  This is
    the number the runtime monitor enforces: an observed size above it is
    an M006 finding, turning the static claim into a dynamic witness.
``evicted_by``
    How entries leave, ``+``-combinable from :data:`EVICTION_MECHANISMS`:
    ``cap`` (a size check at every insert site — M002 verifies the check
    is statically present), ``lru`` (an ``OrderedDict`` recency eviction,
    checked like ``cap``), ``sweep`` (a scheduled expiry sweep — M003
    verifies an eviction-performing function is reachable from a schedule
    site), ``lifecycle`` (protocol-driven removal: close/abort/response;
    carries no static obligation on its own, which is why it should be
    combined with ``cap`` when the key is attacker-controlled).
``keyed_by``
    Who controls the key space: ``attacker`` (spoofable source address,
    qname, msg id, ISN — the §III threat model), ``internal`` (peer set
    chosen by legitimate on-path components), or ``config`` (finite
    domain fixed at construction).  Attacker-keyed collections are the
    ones M001 insists must be declared at all.

A module with attacker-facing ``taint_params`` but genuinely *no*
long-lived collections declares the honest empty form
``__state_bounds__ = {}`` so M001's scope stays explicit.

``__layer__`` — the package's layer, a string matched against the
import-layering manifest (:mod:`.layers.manifest`); any literal is read
and L005 rejects the ones that are not a layer name.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import pkgutil
from types import ModuleType
from typing import Callable, Iterator

# -- __trust_boundary__ ------------------------------------------------------

#: Attribute names on any value that is already attacker-tainted do not
#: matter (taint is closed under attribute access); these are the *root*
#: secret attributes for T002 — key material wherever it lives.
DEFAULT_SECRET_ATTRS = frozenset(
    {"_cookie_secret", "_current_key", "_previous_key"}
)

#: Calls whose result is key material (T002 sources).
DEFAULT_SECRET_CALLS = frozenset({"random_key", "export_state"})

#: Calls that *declassify* a secret: a keyed digest is the cookie itself,
#: which is sent to clients by design — the key does not leak through it.
DEFAULT_DECLASSIFIERS = frozenset(
    {"hashlib.md5", "hashlib.blake2b", "hashlib.sha256", "md5", "blake2b"}
)

#: Exposure sinks for T002: anything that renders values toward logs,
#: human-facing reports, or the observability exporters.
DEFAULT_EXPOSURE_SINKS = frozenset(
    {
        "print",
        "logging.info",
        "logging.debug",
        "logging.warning",
        "logging.error",
        "log",
        "obs.counter",
        "obs.gauge",
        "add_snapshot",
        "spans.point",
        "point",
        "format_text",
    }
)


@dataclasses.dataclass(frozen=True, slots=True)
class TrustModel:
    """The merged trust boundary the T-rules run under for one module."""

    scheme: str = ""
    entry_points: frozenset[str] = frozenset()
    taint_params: frozenset[str] = frozenset()
    sanitizers: frozenset[str] = frozenset()
    sanitizer_attrs: frozenset[str] = frozenset()
    sinks: frozenset[str] = frozenset()
    secret_attrs: frozenset[str] = DEFAULT_SECRET_ATTRS
    secret_calls: frozenset[str] = DEFAULT_SECRET_CALLS
    declassifiers: frozenset[str] = DEFAULT_DECLASSIFIERS
    exposure_sinks: frozenset[str] = DEFAULT_EXPOSURE_SINKS
    assumes: str = ""

    def is_entry_point(self, qualname: str) -> bool:
        return qualname in self.entry_points or (
            "." in qualname and qualname.split(".", 1)[1] in self.entry_points
        )


#: Model applied to modules with no declaration: T002 still runs (secret
#: hygiene is repo-wide), T001 has no sources/sinks and stays silent.
DEFAULT_TRUST = TrustModel()


def parse_trust(raw: dict) -> TrustModel:
    """Merge a raw ``__trust_boundary__`` dict over the defaults."""
    merged: dict[str, object] = {}
    for field in dataclasses.fields(TrustModel):
        if field.name in ("scheme", "assumes"):
            merged[field.name] = str(raw.get(field.name, ""))
        else:
            # list fields *extend* the defaults; an explicit empty list is
            # a no-op, never a mask — defaults are the safety floor
            merged[field.name] = field.default | frozenset(
                str(item) for item in raw.get(field.name, ())
            )
    return TrustModel(**merged)  # type: ignore[arg-type]


# -- __shared_state__ --------------------------------------------------------


@dataclasses.dataclass(frozen=True, slots=True)
class SharedStateDecl:
    """Declared shared-state cells for one class."""

    class_name: str
    guarded: frozenset[str]
    commutative: frozenset[str]

    @property
    def all_attrs(self) -> frozenset[str]:
        return self.guarded | self.commutative


def parse_shared_state(raw: object) -> dict[str, SharedStateDecl]:
    """Normalise a raw ``__shared_state__`` dict to per-class decls."""
    if not isinstance(raw, dict):
        return {}
    decls: dict[str, SharedStateDecl] = {}
    for class_name, spec in raw.items():
        if not isinstance(spec, dict):
            continue
        decls[str(class_name)] = SharedStateDecl(
            class_name=str(class_name),
            guarded=frozenset(str(a) for a in spec.get("guarded", ())),
            commutative=frozenset(str(a) for a in spec.get("commutative", ())),
        )
    return decls


# -- __state_bounds__ --------------------------------------------------------

#: The eviction vocabulary a declaration may combine with ``+``.
EVICTION_MECHANISMS = frozenset({"cap", "lru", "sweep", "lifecycle"})


@dataclasses.dataclass(frozen=True, slots=True)
class StateBound:
    """One declared collection: its owner, capacity and eviction story."""

    class_name: str
    attr: str
    bound: int
    evicted_by: frozenset[str]
    keyed_by: str

    def describe(self) -> str:
        how = "+".join(sorted(self.evicted_by))
        return (
            f"{self.class_name}.{self.attr} "
            f"(bound {self.bound}, evicted by {how}, {self.keyed_by}-keyed)"
        )


def parse_state_bounds(raw: object) -> dict[str, dict[str, StateBound]]:
    """Normalise a raw ``__state_bounds__`` dict to per-class, per-attr
    :class:`StateBound` records.  Malformed entries are dropped — the
    static pass is what reports incomplete declarations, not the parser."""
    if not isinstance(raw, dict):
        return {}
    decls: dict[str, dict[str, StateBound]] = {}
    for class_name, attrs in raw.items():
        if not isinstance(attrs, dict):
            continue
        per_class: dict[str, StateBound] = {}
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


# -- the schema table and the one loader -------------------------------------


@dataclasses.dataclass(frozen=True, slots=True)
class Schema:
    """How one declaration is read: which :class:`Declarations` field it
    fills, the type its literal must have to count as present, the parser
    that normalises the raw value, and whether the field keeps the
    declaration's line beside the value (for rules that report *at* it)."""

    field: str
    literal: type
    parse: Callable[[object], object]
    keeps_line: bool = False


SCHEMAS: dict[str, Schema] = {
    "__trust_boundary__": Schema("trust", dict, parse_trust),
    "__shared_state__": Schema("shared_state", dict, parse_shared_state),
    "__state_bounds__": Schema("state_bounds", dict, parse_state_bounds, keeps_line=True),
    # any literal is read as-is: L005 rejects the ones that are not a layer
    "__layer__": Schema("layer", object, lambda raw: raw, keeps_line=True),
}


@dataclasses.dataclass(frozen=True, slots=True)
class Declarations:
    """What one module declares about itself, read once."""

    #: the declared trust boundary merged over the defaults
    trust: TrustModel = DEFAULT_TRUST
    #: class name -> declared cells; empty when nothing is declared
    shared_state: dict[str, SharedStateDecl] = dataclasses.field(default_factory=dict)
    #: (class -> attr -> bound, declaration line), or None when the module
    #: declares nothing (``{}`` counts as declaring)
    state_bounds: tuple[dict[str, dict[str, StateBound]], int] | None = None
    #: (``__layer__`` value, declaration line), or None
    layer: tuple[object, int] | None = None


def load_declarations(tree: ast.Module) -> Declarations:
    """Read every :data:`SCHEMAS` declaration off ``tree.body``."""
    fields: dict[str, object] = {}
    decided: set[str] = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets = [stmt.target]
        else:
            continue
        for target in targets:
            if not isinstance(target, ast.Name) or target.id not in SCHEMAS:
                continue
            if target.id in decided:
                continue
            decided.add(target.id)
            schema = SCHEMAS[target.id]
            try:
                raw = ast.literal_eval(stmt.value)
            except ValueError:
                continue  # declarations must be data, never computed
            if not isinstance(raw, schema.literal):
                continue
            value = schema.parse(raw)
            fields[schema.field] = (value, stmt.lineno) if schema.keeps_line else value
    return Declarations(**fields)  # type: ignore[arg-type]


def iter_declared_classes(
    package: str, name: str
) -> Iterator[tuple[ModuleType, type, object]]:
    """The runtime monitors' view of a declaration: import ``package``
    recursively and yield ``(module, class, parsed entry)`` once for every
    class a module-level ``name`` declaration describes.

    Modules that fail to import (optional deps, scripts) are skipped and
    empty entries ignored — the static rules are what enforce that
    declarations are present and complete.
    """
    parse = SCHEMAS[name].parse
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
