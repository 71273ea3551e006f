"""The one rule registry: every analysis rule's id, family and documentation.

Five engine families (lint, flow, races, memory, layers) check the
tree, but there is a single table of what they check.  Everything that
needs to know a rule exists reads :data:`RULES`: ``--rules`` selection
(:func:`select`), ``--list-rules`` (:func:`rule_table`), ``--rules-md``,
the ``--fail-on`` severity contract, U001's known-id set and the SARIF
rule descriptors.  The checks themselves live with their family (see
:data:`repro.analysis.kernel.FAMILIES`); a rule is one :class:`Rule` row
here plus a check there.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable


@dataclasses.dataclass(frozen=True, slots=True)
class Rule:
    """Registry metadata for one rule (the checks live with their family)."""

    id: str
    #: fine-grained family label shown in the README table; an engine
    #: family owns one or more labels (``races`` owns ``race-static`` and
    #: ``race-runtime``)
    family: str
    summary: str
    rationale: str
    #: ``error`` | ``warning`` | ``note`` — drives the SARIF level and the
    #: ``--fail-on`` exit-code contract.
    severity: str = "error"


RULES: dict[str, Rule] = {
    rule.id: rule
    for rule in (
        Rule(
            "D001", "lint",
            "no wall-clock reads in simulation code",
            "simulated behaviour keyed to the host clock differs on every run; all "
            "time must come from Simulator.now",
        ),
        Rule(
            "D002", "lint",
            "no global/unseeded randomness outside Simulator.rng",
            "the process-global random module and unseeded random.Random() draw from "
            "OS entropy; every stochastic choice must flow from the seeded "
            "Simulator.rng",
        ),
        Rule(
            "D003", "lint",
            "no set/dict-order iteration feeding event scheduling",
            "set iteration order (and dict order, when insertion order is itself "
            "unstable) depends on hashes and allocation; events scheduled from such "
            "loops land in a run-dependent sequence — wrap the iterable in sorted(...)",
        ),
        Rule(
            "D004", "lint",
            "no mutable default arguments",
            "a mutable default is shared across calls; state leaking between two "
            "supposedly independent simulator runs makes the second run depend on the "
            "first",
        ),
        Rule(
            "D005", "lint",
            "no floating-point == / != on virtual time",
            "virtual timestamps are accumulated floats; exact equality is "
            "rounding-order dependent — compare with a tolerance or order by event "
            "sequence instead",
        ),
        Rule(
            "U001", "hygiene",
            "suppression marker that suppresses nothing",
            "an allow[...] marker whose rule never fires on its line — or that names "
            "an unknown rule id — documents a hazard that no longer exists; stale "
            "rationales are misinformation, so the marker must be deleted when the "
            "finding goes away",
            severity="warning",
        ),
        Rule(
            "W001", "lint",
            "no bare except / silently swallowed exceptions",
            "an exception swallowed inside an event callback silently truncates the "
            "event cascade, producing a plausible-looking but wrong run; failures "
            "must surface or be narrowly handled",
        ),
        Rule(
            "W002", "lint",
            "repro.obs must stay observe-only and repro.farm must stay seed-pure: no "
            "actuator calls, no private RNGs",
            "the observability layer is a read-only tap: if it schedules events, "
            "draws randomness, or calls a mutating guard/limiter entry point (the "
            "actuator seam reserved for repro.control), enabling it changes the event "
            "trace and every --sanitize parity guarantee breaks; farm workers carry "
            "the same discipline — a worker that actuates a guard or constructs its "
            "own random.Random breaks the contract that a cell's result depends only "
            "on (matrix, params, derived seed), so farm randomness must flow from the "
            "per-cell seed (Cell.seed / Simulator.child_rng)",
        ),
        Rule(
            "E999", "parse",
            "file fails to parse",
            "nothing can be checked in unparsable code",
        ),
        Rule(
            "T001", "taint",
            "guard admission depends on attacker-controlled input without a "
            "dominating sanitizer",
            "the paper's §III invariant: forged packet fields may influence admission "
            "only through the cookie verify / SYN-cookie validate / ISN echo check",
        ),
        Rule(
            "T002", "taint",
            "cookie key material flows into a log, repr, or obs exporter",
            "spoof detection is exactly as strong as key secrecy; keys leave the "
            "process only via explicit state export",
        ),
        Rule(
            "R001", "race-static",
            "same-instant handlers have statically overlapping write sets over "
            "declared shared state",
            "two events at equal virtual time run in heap insertion order; results "
            "that depend on that order are scheduling artifacts, not properties of "
            "the modelled system",
        ),
        Rule(
            "R002", "race-static",
            "scheduler-visible shared state accessed without a __shared_state__ "
            "declaration",
            "the race rules can only watch cells that are declared; an undeclared "
            "table is an unwatched table",
        ),
        Rule(
            "R003", "race-runtime",
            "write/write conflict observed inside a tie group at runtime",
            "both orders of the colliding writes were schedulable; the run's answer "
            "picked one silently",
        ),
        Rule(
            "R004", "race-runtime",
            "read/write conflict observed inside a tie group at runtime",
            "a same-instant reader saw either the pre- or post-write value depending "
            "on insertion order alone",
        ),
        Rule(
            "M001", "memory",
            "attacker-keyed collection written on an attacker-driven path with no "
            "declared bound",
            "a spoofed flood chooses the keys, so an undeclared table is a one-line "
            "memory DoS; declare it in __state_bounds__ with an enforced bound (the "
            "paper's §III soft state is bounded by construction)",
        ),
        Rule(
            "M002", "memory",
            "declared cap/lru bound with an insert site that performs no cap check or "
            "eviction",
            "a bound that is not enforced wherever the collection grows is "
            "documentation, not a defense; every insert site must carry a len() check "
            "or an eviction on the same table",
        ),
        Rule(
            "M003", "memory",
            "sweep-declared soft state with no eviction reachable from a scheduled "
            "callback",
            "TIME_WAIT entries, pending challenges and cookie generations expire only "
            "if a sweep actually runs; an unreachable sweep means entries inserted "
            "under flood live forever",
        ),
        Rule(
            "M004", "memory",
            "early return/raise between an insert and its cap enforcement",
            "an exception or early-return path that skips the cap lets an attacker "
            "grow the table past its bound by triggering that path; evict-then-insert "
            "is bypass-proof",
        ),
        Rule(
            "M005", "memory",
            "unbudgeted self-reschedule that also grows a collection",
            "a callback that unconditionally reschedules itself while inserting "
            "accumulates state every firing with no budget; sweeps must be evict-only "
            "and retries must be bounded",
        ),
        Rule(
            "L001", "layering",
            "pure-core module imports a forbidden layer (simulator, observability, "
            "asyncio, sockets, clocks, OS entropy)",
            "the paper's guard is a separable module; one upward import couples every "
            "decision to the simulator and kills the real-socket port (ROADMAP item "
            "4) — inject capabilities through repro.guard.core.ports instead",
        ),
        Rule(
            "L002", "layering",
            "pure-core function reaches a transport/scheduling API through the call "
            "graph",
            "even without an import, calling schedule()/send()/submit() on a "
            "duck-typed argument makes the decision logic drive the transport; pure "
            "functions return decisions and let the adapter act on them",
        ),
        Rule(
            "L003", "layering",
            "purity escape in the core: wall clock, OS entropy, blocking I/O or "
            "global mutable module state",
            "hidden inputs make replay and the sanitizer's bit-identical traces "
            "impossible; time and randomness arrive through the injected Clock/Rng "
            "seams, state lives in instances the adapter owns",
        ),
        Rule(
            "L004", "layering",
            "admission/verification decision logic living in an adapter instead of "
            "behind the core seam",
            "an adapter computing hash digests is re-growing decision logic outside "
            "the audited core — the exact drift the guard-core extraction removed; "
            "add the decision to repro.guard.core and call through the seam",
        ),
        Rule(
            "L005", "layering",
            "layer-manifest drift: undeclared module or stale declaration",
            "the manifest and the per-package __layer__ declarations are two views of "
            "one architecture; when they disagree the layering analysis is checking a "
            "world that no longer exists",
        ),
        Rule(
            "L006", "layering-runtime",
            "pure core fails to import with the platform layers blocked (runtime "
            "import-isolation witness)",
            "the dynamic proof of L001's static claim: a fresh interpreter imports "
            "the declared pure core with netsim/obs/asyncio/sockets blocked by a "
            "meta-path finder, so no transitive platform dependency can hide behind a "
            "re-export or a lazy import",
        ),
    )
}


def rules_in(labels: Iterable[str]) -> list[Rule]:
    """The registered rules carrying one of the family ``labels``, by id."""
    wanted = frozenset(labels)
    return [rule for _, rule in sorted(RULES.items()) if rule.family in wanted]


def select(rule_ids: Iterable[str] | None) -> frozenset[str]:
    """The rule ids to run: every registered id for ``None``, else the
    given ids — a ``KeyError`` names any the registry does not know."""
    if rule_ids is None:
        return frozenset(RULES)
    selected = frozenset(rule_ids)
    unknown = sorted(selected - set(RULES))
    if unknown:
        raise KeyError(f"unknown rule ids: {', '.join(unknown)}")
    return selected


def severity_of(rule_id: str) -> str:
    """The registered severity for ``rule_id`` (unknown ids rank as error)."""
    rule = RULES.get(rule_id)
    return rule.severity if rule is not None else "error"


def rule_table(rules: Iterable[Rule]) -> str:
    """Plain-text rule table (the ``--list-rules`` block for one family)."""
    lines = ["rule   summary", "-----  -------"]
    for rule in rules:
        lines.append(f"{rule.id:<6} {rule.summary}")
        lines.append(f"       why: {rule.rationale}")
    return "\n".join(lines)
