"""Repo-specific determinism lint checks.

Every paper result this repo reproduces rests on ``Simulator`` runs being
bit-for-bit reproducible from a seed.  These checks catch the source-level
patterns that silently break that property.

Adding a rule
=============

Add its :class:`~repro.analysis.registry.Rule` row (id, ``"lint"``,
summary, rationale) to :data:`repro.analysis.registry.RULES`, then
subclass :class:`LintRule` here, set ``id``, implement ``check`` and
decorate with :func:`register` — roughly 15 lines::

    @register
    class NoSleep(LintRule):
        id = "D006"

        def check(self, tree, path):
            for node in ast.walk(tree):
                if (isinstance(node, ast.Call)
                        and dotted_name(node.func) == "time.sleep"):
                    yield self.finding(path, node, "time.sleep() call")

Suppress a finding inline with ``# repro: allow[D006]`` on the offending
line (comma-separate several rule ids in one marker).
"""

from __future__ import annotations

import ast
from typing import ClassVar, Iterator

from .findings import Finding
from .registry import RULES

#: Lint checks: rule id -> check class.  Populated by :func:`register`.
LINT_CHECKS: dict[str, type["LintRule"]] = {}


def register(rule_cls: type["LintRule"]) -> type["LintRule"]:
    """Class decorator binding a check to its registry row (one per id)."""
    if rule_cls.id in LINT_CHECKS:
        raise ValueError(f"duplicate lint rule id {rule_cls.id!r}")
    if rule_cls.id not in RULES:
        raise ValueError(f"lint rule {rule_cls.id!r} has no registry row")
    LINT_CHECKS[rule_cls.id] = rule_cls
    return rule_cls


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


def type_checking_guarded(tree: ast.AST) -> set[ast.AST]:
    """All nodes inside ``if TYPE_CHECKING:`` blocks — they never execute,
    so typing-only imports of e.g. ``random`` are not runtime randomness."""
    guarded: set[ast.AST] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.If):
            test_name = dotted_name(node.test)
            if test_name in ("TYPE_CHECKING", "typing.TYPE_CHECKING"):
                for child in node.body:
                    guarded.update(ast.walk(child))
    return guarded


class LintRule:
    """Base class: one determinism check, stateless, run per file."""

    id: ClassVar[str]

    def check(self, tree: ast.AST, path: str) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, path: str, node: ast.AST, message: str) -> Finding:
        return Finding.at(path, node, self.id, message)


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


@register
class NoWallClock(LintRule):
    id = "D001"

    def check(self, tree: ast.AST, path: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name in _WALL_CLOCK_CALLS:
                    yield self.finding(
                        path, node, f"wall-clock read {name}() — use Simulator.now"
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


@register
class NoGlobalRandom(LintRule):
    id = "D002"

    def check(self, tree: ast.AST, path: str) -> Iterator[Finding]:
        guarded = type_checking_guarded(tree)
        for node in ast.walk(tree):
            if node in guarded:
                continue
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random":
                        yield self.finding(
                            path,
                            node,
                            "import random — draw from the seeded Simulator.rng "
                            "instead",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    yield self.finding(
                        path,
                        node,
                        "from random import ... — draw from the seeded "
                        "Simulator.rng instead",
                    )
            elif isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name == "random.Random" and not node.args and not node.keywords:
                    yield self.finding(
                        path,
                        node,
                        "unseeded random.Random() — pass an explicit seed or use "
                        "Simulator.rng",
                    )
                elif (
                    name is not None
                    and name.startswith("random.")
                    and name.removeprefix("random.") in _GLOBAL_RNG_FNS
                ):
                    yield self.finding(
                        path,
                        node,
                        f"{name}() uses the process-global RNG — use Simulator.rng",
                    )
                elif name in _OS_ENTROPY_CALLS:
                    yield self.finding(
                        path,
                        node,
                        f"{name}() draws OS entropy — not reproducible from a "
                        "seed; plumb key material through Simulator.rng",
                    )


# ---------------------------------------------------------------------------
# D003 — unordered iteration feeding event scheduling
# ---------------------------------------------------------------------------

_SCHEDULE_METHODS = {"schedule", "schedule_at"}
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
                if isinstance(func, ast.Attribute) and func.attr in _SCHEDULE_METHODS:
                    return node
                if isinstance(func, ast.Name) and func.id in _SCHEDULE_METHODS:
                    return node
    return None


@register
class NoUnorderedScheduling(LintRule):
    id = "D003"

    def check(self, tree: ast.AST, path: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, (ast.For, ast.AsyncFor)):
                continue
            why = _is_unordered_iterable(node.iter)
            if why is None:
                continue
            call = _schedules_events(node.body)
            if call is not None:
                yield self.finding(
                    path,
                    node,
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


@register
class NoMutableDefaults(LintRule):
    id = "D004"

    def check(self, tree: ast.AST, path: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if _is_mutable_default(default):
                    yield self.finding(
                        path,
                        default,
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


@register
class NoFloatTimeEquality(LintRule):
    id = "D005"

    def check(self, tree: ast.AST, path: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            operands = [node.left, *node.comparators]
            if any(_mentions_virtual_time(operand) for operand in operands):
                yield self.finding(
                    path,
                    node,
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


@register
class ObserveOnly(LintRule):
    id = "W002"

    @staticmethod
    def _scope(path: str) -> str | None:
        p = path.replace("\\", "/")
        if "repro/obs/" in p:
            return "obs"
        if "repro/farm/" in p:
            return "farm"
        return None

    def check(self, tree: ast.AST, path: str) -> Iterator[Finding]:
        scope = self._scope(path)
        if scope is None:
            return
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                if (
                    scope == "obs"
                    and isinstance(func, ast.Attribute)
                    and func.attr in _OBS_FORBIDDEN_CALLS
                ):
                    yield self.finding(
                        path,
                        node,
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
                    yield self.finding(path, node, f".{func.attr}() call in {where}")
                elif scope == "farm":
                    name = dotted_name(func)
                    if name in ("random.Random", "Random"):
                        yield self.finding(
                            path,
                            node,
                            f"{name}() constructed in farm code — farm "
                            "randomness must derive from the per-cell seed "
                            "(Cell.seed / Simulator.child_rng), never a "
                            "private RNG",
                        )
            elif scope == "obs" and isinstance(node, ast.Attribute) and node.attr == "rng":
                yield self.finding(
                    path,
                    node,
                    ".rng access in observability code — obs must never touch "
                    "simulator randomness",
                )


# ---------------------------------------------------------------------------
# W001 — swallowed exceptions in event callbacks
# ---------------------------------------------------------------------------


@register
class NoSwallowedExceptions(LintRule):
    id = "W001"

    def check(self, tree: ast.AST, path: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    path, node, "bare except: — catch a specific exception type"
                )
                continue
            type_name = dotted_name(node.type)
            body_is_pass = len(node.body) == 1 and isinstance(node.body[0], ast.Pass)
            if type_name in ("Exception", "BaseException") and body_is_pass:
                yield self.finding(
                    path,
                    node,
                    f"except {type_name}: pass swallows every failure — "
                    "handle or re-raise",
                )
