"""Taint dataflow + protocol-FSM conformance checking.

The AST lint (D/W rules) catches syntactic hazards; this package checks
*dataflow* facts — the properties the paper's §III security argument
actually rests on:

* **T-rules** (:mod:`.taint`) — T001: no guard admission may depend on an
  attacker-controlled packet field unless a registered sanitizer (cookie
  verify, SYN-cookie validate, ISN echo check) dominates it; T002: cookie
  key material must never flow into logs, ``__repr__`` output, or obs
  exporters.  Guard schemes self-describe their trust boundary with a
  module-level ``__trust_boundary__`` literal
  (:mod:`repro.analysis.declarations`).
* **S-rules** (:mod:`.fsm`) — the TCP transition relation is extracted
  statically from the implementation and checked against the declared FSM
  spec (:mod:`.fsm_spec`): undeclared/unimplemented transitions,
  unreachable states, missing retransmit/abort escapes, segment handling
  before SYN-cookie validation, and an exhaustive small-model walk proving
  every path to ESTABLISHED crosses the ISN check.

Everything is stdlib-``ast`` static analysis: no analysed module is ever
imported or executed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..findings import Finding
from . import fsm, taint

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..kernel import Facts


def check(facts: "Facts", selected: frozenset[str]) -> list[Finding]:
    """The flow family's check: the T-rules, then the S-rules."""
    return taint.check(facts, selected) + fsm.check(facts, selected)
