"""The dataflow core: a fixpoint taint walker with call summaries.

Three taint tags flow through a finite union lattice:

* ``ATT`` — attacker-controlled (packet fields at trust-boundary entry
  points, and anything computed from them);
* ``SAN`` — sanitizer evidence (the result of a registered cookie verify /
  SYN-cookie validate / ISN check, or a value read off a registered
  evidence attribute);
* ``SEC`` — key-material secrets;
* ``("param", name)`` — symbolic taint used while building a function's
  *summary*: which parameters reach its return value, and which reach a
  sink.  Summaries let taint cross call (and module) boundaries without a
  whole-program supergraph.

The walker is intraprocedural and flow-sensitive: statements are processed
in order, loop bodies are iterated to a fixpoint (the lattice is finite
and joins are unions, so iteration terminates), and branch contexts track

* *control taint* — tags mentioned by enclosing tests, including the
  negated condition after an early-return ``if`` (the guard idiom
  ``if not verify(...): return``), and
* *sanitized* — whether a registered sanitizer dominates the current
  program point, with polarity (``verify()`` sanitizes its true branch;
  ``not verify()`` sanitizes the code after its terminating body).

Sinks are not judged here: the walker records :class:`SinkEvent` facts and
the T-rules in :mod:`.taint` turn them into findings.
"""

from __future__ import annotations

import ast
import dataclasses

from ..parse import FunctionDecl, ModuleInfo, NameIndex, call_name, dotted_name

#: The three concrete taint tags (param tags are ``("param", name)``).
ATT = "ATT"
SAN = "SAN"
SEC = "SEC"

Tags = frozenset
EMPTY: Tags = frozenset()

#: Loop-body fixpoint ceiling; the union lattice stabilises far sooner.
_MAX_LOOP_PASSES = 6

#: Summary-propagation passes across the call graph (chains are shallow).
_SUMMARY_PASSES = 3


def _param_tags(tags: Tags) -> frozenset[str]:
    return frozenset(t[1] for t in tags if isinstance(t, tuple) and t[0] == "param")


@dataclasses.dataclass(slots=True)
class FunctionSummary:
    """What a call to this function does with its arguments."""

    returns_taint_of: frozenset[str] = EMPTY  # param names flowing to return
    params_to_sink: frozenset[str] = EMPTY  # param names reaching a sink
    sink_names: frozenset[str] = EMPTY  # the sinks those params reach


@dataclasses.dataclass(slots=True)
class SinkEvent:
    """A sink call observed with the taint facts holding at that point."""

    node: ast.AST
    sink: str
    kind: str  # "admission" | "exposure"
    data_tags: Tags
    ctx_tags: Tags
    sanitized: bool
    function: str
    via_summary: bool = False


def _suffix_match(name: str, registry: frozenset[str]) -> str | None:
    """Match ``a.b.c`` against registered dotted suffixes (``c``, ``b.c``)."""
    if not name:
        return None
    parts = name.split(".")
    for depth in range(1, len(parts) + 1):
        suffix = ".".join(parts[-depth:])
        if suffix in registry:
            return suffix
    return None


@dataclasses.dataclass(slots=True)
class _Ctx:
    """Branch context: accumulated control taint + sanitizer dominance."""

    tags: Tags = EMPTY
    sanitized: bool = False

    def enter(self, tags: Tags, sanitized: bool) -> "_Ctx":
        return _Ctx(self.tags | (tags - {SAN}), self.sanitized or sanitized)


@dataclasses.dataclass(slots=True)
class _TestFacts:
    """What a branch condition tells us, with polarity."""

    tags: Tags
    san_true: bool  # condition true  => sanitizer passed
    san_false: bool  # condition false => sanitizer passed


class TaintWalker:
    """Runs one function; ``mode`` is ``"summary"`` or ``"check"``."""

    def __init__(
        self,
        module: ModuleInfo,
        decl: FunctionDecl,
        summaries: dict[tuple[str, str], FunctionSummary],
        index: NameIndex,
        mode: str,
    ):
        self.module = module
        self.trust = module.declared.trust
        self.decl = decl
        self.summaries = summaries
        self.index = index
        self.mode = mode
        self.env: dict[str, Tags] = {}
        self.events: list[SinkEvent] = []
        self.return_tags: Tags = EMPTY
        if mode == "summary":
            for param in decl.params:
                self.env[param] = frozenset({("param", param)})
        else:
            for param in decl.params:
                if param in self.trust.taint_params:
                    self.env[param] = frozenset({ATT})

    # -- driving ---------------------------------------------------------------

    def run(self) -> None:
        self._block(self.decl.node.body, _Ctx())

    def summary(self) -> FunctionSummary:
        sink_params: set[str] = set()
        sink_names: set[str] = set()
        for event in self.events:
            reaching = _param_tags(event.data_tags | event.ctx_tags)
            if reaching and not event.sanitized:
                sink_params.update(reaching)
                sink_names.add(event.sink)
        return FunctionSummary(
            returns_taint_of=_param_tags(self.return_tags),
            params_to_sink=frozenset(sink_params),
            sink_names=frozenset(sink_names),
        )

    # -- statements -------------------------------------------------------------

    def _block(self, stmts: list[ast.stmt], ctx: _Ctx) -> None:
        i = 0
        while i < len(stmts):
            stmt = stmts[i]
            if isinstance(stmt, ast.If):
                facts = self._test(stmt.test)
                self._block(stmt.body, ctx.enter(facts.tags, facts.san_true))
                if stmt.orelse:
                    self._block(
                        stmt.orelse, ctx.enter(facts.tags, facts.san_false)
                    )
                # the guard idiom: `if <cond>: return` makes the remainder
                # control-dependent on `not <cond>` — including sanitizer
                # dominance when <cond> was `not verify(...)`
                body_ends = terminates(stmt.body)
                else_ends = bool(stmt.orelse) and terminates(stmt.orelse)
                if body_ends and not else_ends:
                    ctx = ctx.enter(facts.tags, facts.san_false)
                elif else_ends and not body_ends:
                    ctx = ctx.enter(facts.tags, facts.san_true)
                i += 1
                continue
            self._stmt(stmt, ctx)
            i += 1

    def _stmt(self, stmt: ast.stmt, ctx: _Ctx) -> None:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            value = getattr(stmt, "value", None)
            tags = self._expr(value, ctx) if value is not None else EMPTY
            targets = (
                stmt.targets
                if isinstance(stmt, ast.Assign)
                else [stmt.target]
            )
            for target in targets:
                self._assign(target, tags, augment=isinstance(stmt, ast.AugAssign))
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                tags = self._expr(stmt.value, ctx)
                self.return_tags |= tags
                if self.mode == "check" and SEC in tags and self.decl.qualname.endswith(
                    ("__repr__", "__str__")
                ):
                    self.events.append(
                        SinkEvent(
                            node=stmt,
                            sink=self.decl.qualname.rsplit(".", 1)[-1],
                            kind="exposure",
                            data_tags=tags,
                            ctx_tags=ctx.tags,
                            sanitized=False,
                            function=self.decl.qualname,
                        )
                    )
        elif isinstance(stmt, ast.Expr):
            self._expr(stmt.value, ctx)
        elif isinstance(stmt, (ast.While,)):
            facts = self._test(stmt.test)
            self._loop(stmt.body, ctx.enter(facts.tags, facts.san_true))
            self._block(stmt.orelse, ctx)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            iter_tags = self._expr(stmt.iter, ctx)
            self._assign(stmt.target, iter_tags, augment=False)
            self._loop(stmt.body, ctx.enter(iter_tags, False))
            self._block(stmt.orelse, ctx)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                tags = self._expr(item.context_expr, ctx)
                if item.optional_vars is not None:
                    self._assign(item.optional_vars, tags, augment=False)
            self._block(stmt.body, ctx)
        elif isinstance(stmt, ast.Try):
            self._block(stmt.body, ctx)
            for handler in stmt.handlers:
                self._block(handler.body, ctx)
            self._block(stmt.orelse, ctx)
            self._block(stmt.finalbody, ctx)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # nested closures: walk their bodies in the enclosing env so
            # callback-style helpers (`def on_response(...)`) are covered
            self._block(stmt.body, ctx)
        elif isinstance(stmt, (ast.Raise, ast.Assert)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._expr(child, ctx)
        elif isinstance(stmt, ast.Delete):
            pass
        # Pass/Break/Continue/Import/Global/Nonlocal: nothing flows

    def _loop(self, body: list[ast.stmt], ctx: _Ctx) -> None:
        for _ in range(_MAX_LOOP_PASSES):
            before = dict(self.env)
            self._block(body, ctx)
            if self.env == before:
                break

    def _assign(self, target: ast.expr, tags: Tags, *, augment: bool) -> None:
        if isinstance(target, ast.Name):
            if augment:
                self.env[target.id] = self.env.get(target.id, EMPTY) | tags
            else:
                self.env[target.id] = tags
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._assign(element, tags, augment=True)
        elif isinstance(target, ast.Starred):
            self._assign(target.value, tags, augment=True)
        # attribute/subscript targets: field-insensitive, not tracked

    # -- conditions --------------------------------------------------------------

    def _test(self, test: ast.expr) -> _TestFacts:
        if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            inner = self._test(test.operand)
            return _TestFacts(inner.tags, inner.san_false, inner.san_true)
        if isinstance(test, ast.BoolOp):
            facts = [self._test(value) for value in test.values]
            tags = frozenset().union(*(f.tags for f in facts))
            if isinstance(test.op, ast.And):
                # all conjuncts true: any sanitizer among them ran and passed
                return _TestFacts(tags, any(f.san_true for f in facts), False)
            # Or true: optimistically credit a sanitizer disjunct (the
            # `not active or verify(...)` idiom); Or false: every disjunct
            # false, so a `not verify()` disjunct proves verification
            return _TestFacts(
                tags,
                any(f.san_true for f in facts),
                any(f.san_false for f in facts),
            )
        if isinstance(test, ast.Compare) and len(test.comparators) == 1:
            left_tags = self._expr(test.left, _Ctx())
            right_tags = self._expr(test.comparators[0], _Ctx())
            tags = left_tags | right_tags
            op = test.ops[0]
            is_none = isinstance(test.comparators[0], ast.Constant) and (
                test.comparators[0].value is None
            )
            if SAN in tags:
                if is_none and isinstance(op, ast.Is):
                    # `evidence is None` true means evidence ABSENT
                    return _TestFacts(tags, False, True)
                if is_none and isinstance(op, ast.IsNot):
                    return _TestFacts(tags, True, False)
                if isinstance(op, (ast.NotEq,)):
                    # `segment.ack != expected_isn` true means check FAILED
                    return _TestFacts(tags, False, True)
                return _TestFacts(tags, True, False)
            return _TestFacts(tags, False, False)
        tags = self._expr(test, _Ctx())
        return _TestFacts(tags, SAN in tags, False)

    # -- expressions -------------------------------------------------------------

    def _expr(self, node: ast.expr | None, ctx: _Ctx) -> Tags:
        if node is None:
            return EMPTY
        if isinstance(node, ast.Name):
            return self.env.get(node.id, EMPTY)
        if isinstance(node, ast.Attribute):
            tags = self._expr(node.value, ctx)
            if node.attr in self.trust.secret_attrs:
                tags |= {SEC}
            if node.attr in self.trust.sanitizer_attrs:
                tags |= {SAN}
            return tags
        if isinstance(node, ast.Call):
            return self._call(node, ctx)
        if isinstance(node, ast.Constant):
            return EMPTY
        if isinstance(node, (ast.Lambda,)):
            self._block([ast.Return(value=node.body)], ctx)
            return EMPTY
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            tags: Tags = EMPTY
            for comp in node.generators:
                iter_tags = self._expr(comp.iter, ctx)
                self._assign(comp.target, iter_tags, augment=False)
                tags |= iter_tags
                for cond in comp.ifs:
                    tags |= self._expr(cond, ctx)
            if isinstance(node, ast.DictComp):
                tags |= self._expr(node.key, ctx) | self._expr(node.value, ctx)
            else:
                tags |= self._expr(node.elt, ctx)
            return tags
        # generic: union over expression children (BinOp, BoolOp, Compare,
        # Subscript, JoinedStr, Tuple, Dict, Starred, IfExp, ...)
        tags = EMPTY
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                tags |= self._expr(child, ctx)
        return tags

    def _call(self, node: ast.Call, ctx: _Ctx) -> Tags:
        name = call_name(node)
        arg_exprs = list(node.args) + [kw.value for kw in node.keywords]
        arg_tags = [self._expr(arg, ctx) for arg in arg_exprs]
        all_args: Tags = frozenset().union(*arg_tags) if arg_tags else EMPTY

        # registered sanitizer: the result is trusted evidence
        if _suffix_match(name, self.trust.sanitizers):
            return frozenset({SAN})
        # declassifier: a keyed digest is sendable by design
        if _suffix_match(name, self.trust.declassifiers):
            return all_args - {SEC}
        # secret producer
        if _suffix_match(name, self.trust.secret_calls):
            return frozenset({SEC})

        self._record_sinks(node, name, arg_exprs, arg_tags, all_args, ctx)

        # summary propagation (cross-module via the name index)
        resolved = self.index.resolve(self.module, name) if name else None
        if resolved is not None:
            callee_module, callee_decl = resolved
            summary = self.summaries.get((callee_module.path, callee_decl.qualname))
            if summary is not None:
                self._apply_sink_summary(
                    node, callee_module, callee_decl, summary, arg_exprs, arg_tags, ctx
                )
                result: Tags = EMPTY
                positional = callee_decl.params
                offset = 1 if positional and positional[0] in ("self", "cls") else 0
                for i, tags in enumerate(arg_tags[: len(node.args)]):
                    if i + offset < len(positional) and (
                        positional[i + offset] in summary.returns_taint_of
                    ):
                        result |= tags
                return result
        # unknown callee: conservatively, taint flows through
        return all_args

    def _record_sinks(
        self,
        node: ast.Call,
        name: str,
        arg_exprs: list[ast.expr],
        arg_tags: list[Tags],
        all_args: Tags,
        ctx: _Ctx,
    ) -> None:
        sink = _suffix_match(name, self.trust.sinks)
        if sink is None:
            # the `submit(cost, fn, *args)` callback idiom: a sink passed
            # as an argument is a deferred sink call over the other args
            for i, arg in enumerate(arg_exprs):
                ref = dotted_name(arg)
                if ref is None:
                    continue
                for prefix in ("self.", "cls."):
                    if ref.startswith(prefix):
                        ref = ref[len(prefix):]
                matched = _suffix_match(ref, self.trust.sinks)
                if matched is not None:
                    sink = matched
                    all_args = frozenset().union(
                        *(t for j, t in enumerate(arg_tags) if j != i), EMPTY
                    )
                    break
        if sink is not None:
            self.events.append(
                SinkEvent(
                    node=node,
                    sink=sink,
                    kind="admission",
                    data_tags=all_args,
                    ctx_tags=ctx.tags,
                    sanitized=ctx.sanitized,
                    function=self.decl.qualname,
                )
            )
        exposure = _suffix_match(name, self.trust.exposure_sinks)
        if exposure is not None and SEC in all_args:
            self.events.append(
                SinkEvent(
                    node=node,
                    sink=exposure,
                    kind="exposure",
                    data_tags=all_args,
                    ctx_tags=ctx.tags,
                    sanitized=ctx.sanitized,
                    function=self.decl.qualname,
                )
            )

    def _apply_sink_summary(
        self,
        node: ast.Call,
        callee_module: ModuleInfo,
        callee_decl: FunctionDecl,
        summary: FunctionSummary,
        arg_exprs: list[ast.expr],
        arg_tags: list[Tags],
        ctx: _Ctx,
    ) -> None:
        if not summary.params_to_sink:
            return
        # an entry point's internal findings are reported (or suppressed)
        # at their true location when it is analysed itself — re-reporting
        # every call site would double-count
        if callee_module.declared.trust.is_entry_point(callee_decl.qualname):
            return
        positional = callee_decl.params
        offset = 1 if positional and positional[0] in ("self", "cls") else 0
        reaching: Tags = EMPTY
        for i, tags in enumerate(arg_tags[: len(node.args)]):
            if i + offset < len(positional) and (
                positional[i + offset] in summary.params_to_sink
            ):
                reaching |= tags
        if not reaching:
            return
        sink = sorted(summary.sink_names)[0] if summary.sink_names else "<summary>"
        self.events.append(
            SinkEvent(
                node=node,
                sink=sink,
                kind="admission",
                data_tags=reaching,
                ctx_tags=ctx.tags,
                sanitized=ctx.sanitized,
                function=self.decl.qualname,
                via_summary=True,
            )
        )


def terminates(stmts: list[ast.stmt]) -> bool:
    """Whether a block always leaves the enclosing statement list."""
    if not stmts:
        return False
    last = stmts[-1]
    if isinstance(last, (ast.Return, ast.Raise, ast.Continue, ast.Break)):
        return True
    if isinstance(last, ast.If):
        return bool(last.orelse) and terminates(last.body) and terminates(last.orelse)
    if isinstance(last, (ast.With, ast.AsyncWith)):
        return terminates(last.body)
    return False


def build_summaries(
    modules: list[ModuleInfo], index: NameIndex | None = None
) -> dict[tuple[str, str], FunctionSummary]:
    """Fixpoint summaries for every function in ``modules``.

    Iterated ``_SUMMARY_PASSES`` times so taint-to-sink facts propagate
    through helper chains (``entry -> helper -> deeper helper -> sink``)
    and across module boundaries.
    """
    index = index if index is not None else NameIndex(modules)
    summaries: dict[tuple[str, str], FunctionSummary] = {}
    for _ in range(_SUMMARY_PASSES):
        changed = False
        for module in modules:
            for decl in module.functions.values():
                walker = TaintWalker(module, decl, summaries, index, "summary")
                walker.run()
                new = walker.summary()
                key = (module.path, decl.qualname)
                if summaries.get(key) != new:
                    summaries[key] = new
                    changed = True
        if not changed:
            break
    return summaries
