"""Repo-specific determinism lint checks (the D/W rules).

Every paper result this repo reproduces rests on ``Simulator`` runs being
bit-for-bit reproducible from a seed.  These checks catch the source-level
patterns that silently break that property.

Adding a rule
=============

Add its :class:`~repro.analysis.registry.Rule` row (id, ``"lint"``,
summary, rationale) to :data:`repro.analysis.registry.RULES`, then write
a check function over one parsed module here and list it in
:data:`LINT_CHECKS` — roughly ten lines.  A check reads the module's
node index (``module.nodes.of(ast.Call)``); it never walks the tree::

    def check_no_sleep(module):
        for node in module.nodes.of(ast.Call):
            if dotted_name(node.func) == "time.sleep":
                yield Finding.at(module.path, node, "D006", "time.sleep() call")

Suppress a finding inline with ``# repro: allow[D006]`` on the offending
line (comma-separate several rule ids in one marker).
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator

from .findings import Finding
from .parse import SCHEDULE_NAMES, ModuleInfo, dotted_name

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .kernel import Facts

# ---------------------------------------------------------------------------
# D001 — wall-clock reads
# ---------------------------------------------------------------------------

_WALL_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.clock_gettime",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
    "date.today",
}


def check_wall_clock(module: ModuleInfo) -> Iterator[Finding]:
    for node in module.nodes.of(ast.Call):
        name = dotted_name(node.func)
        if name in _WALL_CLOCK_CALLS:
            yield Finding.at(
                module.path, node, "D001", f"wall-clock read {name}() — use Simulator.now"
            )


# ---------------------------------------------------------------------------
# D002 — unseeded / process-global randomness
# ---------------------------------------------------------------------------

_GLOBAL_RNG_FNS = {
    "random",
    "randint",
    "randrange",
    "randbytes",
    "getrandbits",
    "choice",
    "choices",
    "shuffle",
    "sample",
    "uniform",
    "triangular",
    "gauss",
    "normalvariate",
    "lognormvariate",
    "expovariate",
    "vonmisesvariate",
    "gammavariate",
    "betavariate",
    "paretovariate",
    "weibullvariate",
    "seed",
}

#: OS-entropy reads: every bit drawn here is unreproducible from a seed.
_OS_ENTROPY_CALLS = {
    "secrets.token_bytes",
    "secrets.token_hex",
    "secrets.token_urlsafe",
    "secrets.randbits",
    "secrets.randbelow",
    "secrets.choice",
    "os.urandom",
}


def check_global_random(module: ModuleInfo) -> Iterator[Finding]:
    path = module.path
    guarded = module.type_checking_lines()
    for node in module.nodes.of(ast.Import, ast.ImportFrom, ast.Call):
        if node.lineno in guarded:
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random":
                    yield Finding.at(
                        path,
                        node,
                        "D002",
                        "import random — draw from the seeded Simulator.rng "
                        "instead",
                    )
        elif isinstance(node, ast.ImportFrom):
            if node.module == "random":
                yield Finding.at(
                    path,
                    node,
                    "D002",
                    "from random import ... — draw from the seeded "
                    "Simulator.rng instead",
                )
        else:
            name = dotted_name(node.func)
            if name == "random.Random" and not node.args and not node.keywords:
                yield Finding.at(
                    path,
                    node,
                    "D002",
                    "unseeded random.Random() — pass an explicit seed or use "
                    "Simulator.rng",
                )
            elif (
                name is not None
                and name.startswith("random.")
                and name.removeprefix("random.") in _GLOBAL_RNG_FNS
            ):
                yield Finding.at(
                    path,
                    node,
                    "D002",
                    f"{name}() uses the process-global RNG — use Simulator.rng",
                )
            elif name in _OS_ENTROPY_CALLS:
                yield Finding.at(
                    path,
                    node,
                    "D002",
                    f"{name}() draws OS entropy — not reproducible from a "
                    "seed; plumb key material through Simulator.rng",
                )


# ---------------------------------------------------------------------------
# D003 — unordered iteration feeding event scheduling
# ---------------------------------------------------------------------------

_DICT_VIEW_METHODS = {"keys", "values", "items"}


def _is_unordered_iterable(node: ast.expr) -> str | None:
    """Why ``for x in <node>`` has no guaranteed deterministic order."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "set literal"
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return f"{func.id}() result"
        if isinstance(func, ast.Attribute) and func.attr in _DICT_VIEW_METHODS:
            return f".{func.attr}() view"
    return None


def _schedules_events(body: list[ast.stmt]) -> ast.Call | None:
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute) and func.attr in SCHEDULE_NAMES:
                    return node
                if isinstance(func, ast.Name) and func.id in SCHEDULE_NAMES:
                    return node
    return None


def check_unordered_scheduling(module: ModuleInfo) -> Iterator[Finding]:
    for node in module.nodes.of(ast.For, ast.AsyncFor):
        why = _is_unordered_iterable(node.iter)
        if why is None:
            continue
        call = _schedules_events(node.body)
        if call is not None:
            yield Finding.at(
                module.path,
                node,
                "D003",
                f"iterating a {why} schedules events — wrap the iterable "
                "in sorted(...) for a deterministic order",
            )


# ---------------------------------------------------------------------------
# D004 — mutable default arguments
# ---------------------------------------------------------------------------


def _is_mutable_default(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        return isinstance(func, ast.Name) and func.id in ("list", "dict", "set", "bytearray")
    return False


def check_mutable_defaults(module: ModuleInfo) -> Iterator[Finding]:
    for node in module.nodes.of(ast.FunctionDef, ast.AsyncFunctionDef):
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            if _is_mutable_default(default):
                yield Finding.at(
                    module.path,
                    default,
                    "D004",
                    f"mutable default argument in {node.name}() — use None "
                    "and construct inside the body",
                )


# ---------------------------------------------------------------------------
# D005 — floating-point equality on virtual time
# ---------------------------------------------------------------------------

_TIME_NAMES = {"now", "vtime", "virtual_time"}


def _mentions_virtual_time(node: ast.expr) -> bool:
    if isinstance(node, ast.Attribute):
        return node.attr in _TIME_NAMES
    if isinstance(node, ast.Name):
        return node.id in _TIME_NAMES
    return False


def check_float_time_equality(module: ModuleInfo) -> Iterator[Finding]:
    for node in module.nodes.of(ast.Compare):
        if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            continue
        operands = [node.left, *node.comparators]
        if any(_mentions_virtual_time(operand) for operand in operands):
            yield Finding.at(
                module.path,
                node,
                "D005",
                "exact float comparison on virtual time — use a tolerance "
                "(abs(a - b) < eps) or compare event ordering",
            )


# ---------------------------------------------------------------------------
# W002 — observability code must be observe-only
# ---------------------------------------------------------------------------

_OBS_FORBIDDEN_CALLS = {"schedule", "schedule_at", "child_rng"}

#: Mutating guard/limiter entry points — the *actuator seam*.  Only the
#: control plane (``repro.control``) may call these; a signal callback in
#: ``repro/obs/`` reaching for one turns observation into participation.
_ACTUATOR_ENTRY_POINTS = frozenset(
    {
        "set_policy",
        "set_admission",
        "rotate_cookie_key",
        "reconfigure",
        "rotate",
        "crash",
        "restart",
        "reset",
    }
)


def _observe_scope(path: str) -> str | None:
    p = path.replace("\\", "/")
    if "repro/obs/" in p:
        return "obs"
    if "repro/farm/" in p:
        return "farm"
    return None


def check_observe_only(module: ModuleInfo) -> Iterator[Finding]:
    path = module.path
    scope = _observe_scope(path)
    if scope is None:
        return
    for node in module.nodes.of(ast.Call, ast.Attribute):
        if isinstance(node, ast.Call):
            func = node.func
            if (
                scope == "obs"
                and isinstance(func, ast.Attribute)
                and func.attr in _OBS_FORBIDDEN_CALLS
            ):
                yield Finding.at(
                    path,
                    node,
                    "W002",
                    f".{func.attr}() call in observability code — obs must "
                    "never schedule events or derive RNG streams",
                )
            elif (
                isinstance(func, ast.Attribute)
                and func.attr in _ACTUATOR_ENTRY_POINTS
            ):
                where = (
                    "observability code — mutating guard/limiter entry "
                    "points are the control plane's actuator seam "
                    "(repro.control); observation must not participate"
                    if scope == "obs"
                    else "farm code — farm workers may not call mutating "
                    "guard/limiter entry points outside the sanctioned "
                    "actuator seam (repro.control); a cell's result must "
                    "depend only on its params and derived seed"
                )
                yield Finding.at(path, node, "W002", f".{func.attr}() call in {where}")
            elif scope == "farm":
                name = dotted_name(func)
                if name in ("random.Random", "Random"):
                    yield Finding.at(
                        path,
                        node,
                        "W002",
                        f"{name}() constructed in farm code — farm "
                        "randomness must derive from the per-cell seed "
                        "(Cell.seed / Simulator.child_rng), never a "
                        "private RNG",
                    )
        elif scope == "obs" and node.attr == "rng":
            yield Finding.at(
                path,
                node,
                "W002",
                ".rng access in observability code — obs must never touch "
                "simulator randomness",
            )


# ---------------------------------------------------------------------------
# W001 — swallowed exceptions in event callbacks
# ---------------------------------------------------------------------------


def check_swallowed_exceptions(module: ModuleInfo) -> Iterator[Finding]:
    for node in module.nodes.of(ast.ExceptHandler):
        if node.type is None:
            yield Finding.at(
                module.path, node, "W001", "bare except: — catch a specific exception type"
            )
            continue
        type_name = dotted_name(node.type)
        body_is_pass = len(node.body) == 1 and isinstance(node.body[0], ast.Pass)
        if type_name in ("Exception", "BaseException") and body_is_pass:
            yield Finding.at(
                module.path,
                node,
                "W001",
                f"except {type_name}: pass swallows every failure — "
                "handle or re-raise",
            )


#: rule id -> per-module check, in reporting order.
LINT_CHECKS = {
    "D001": check_wall_clock,
    "D002": check_global_random,
    "D003": check_unordered_scheduling,
    "D004": check_mutable_defaults,
    "D005": check_float_time_equality,
    "W001": check_swallowed_exceptions,
    "W002": check_observe_only,
}


def check(facts: "Facts", selected: frozenset[str]) -> list[Finding]:
    """The lint family's check: every selected lint rule over every module."""
    findings: list[Finding] = []
    for module in facts.modules:
        for rule_id, rule_check in LINT_CHECKS.items():
            if rule_id in selected:
                findings.extend(rule_check(module))
    return findings
