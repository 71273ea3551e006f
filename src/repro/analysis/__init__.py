"""Static analysis + runtime witnesses guarding the reproduction's invariants.

Every reproduced result depends on claims the code must keep true: a
``Simulator`` run is bit-for-bit reproducible from its seed, no forged
packet field reaches a guard admission except through a cookie check
(the paper's §III), soft state is bounded, and the guard's decision logic
is separable from its transport.  This package checks them, with one
home per concept:

* :mod:`.registry` — the one rule table: every rule id (26 plus E999),
  its family label, summary, rationale and severity.  ``--rules``,
  ``--list-rules``, ``--rules-md``, ``--fail-on``, U001's known ids and
  the SARIF descriptors all read it;
* :mod:`.parse` — the shared parse record: each source is parsed once
  and walked once into a node index (every node in ``ast.walk`` order,
  grouped by type, each function owning its slice) that every rule
  iterates instead of re-walking the tree;
* :mod:`.declarations` — the four self-describing declarations
  (``__trust_boundary__``, ``__shared_state__``, ``__state_bounds__``,
  ``__layer__``) as one schema table and one typed loader over
  ``tree.body``, its result riding on the parse record;
* :mod:`.kernel` — the family table (:data:`~.kernel.FAMILIES`), the
  shared-facts pass (:class:`~.kernel.Facts`: one parse, one name index,
  one set of call summaries per run) and the one runner
  (:func:`~.kernel.run` / :func:`analyze`) that selects rules, filters
  ``# repro: allow[RULE]`` suppressions and sorts;
* the five families, one shape each — a ``check(facts, selected)``
  function in the family's rules module, over a ``{rule id: check}``
  dict where the rules are independent: the determinism lint
  (:mod:`.rules`: D/W rules), :mod:`.flow` (T-rules: taint over
  ``__trust_boundary__``), :mod:`.races` (R-rules over
  ``__shared_state__``), :mod:`.memory` (M-rules over
  ``__state_bounds__`` and the per-event hot set) and
  :mod:`.layers` (L-rules over ``__layer__``);
* :mod:`.sarif` — family-neutral SARIF 2.1.0 export;
* :mod:`.sanitizer` and :mod:`.modes` — the runtime witnesses behind
  ``python -m repro <cmd> --sanitize | --races``;
* :mod:`.cli` — ``python -m repro.analysis [--flow] [--races] [--memory]
  [--layers] [--sarif OUT] [paths...]``, nonzero exit on findings for CI.
"""

from .engine import SuppressionTracker, suppressed_rules
from .findings import Finding
from .kernel import FAMILIES, Facts, analyze, lint_source, run
from .registry import RULES, Rule
from .sanitizer import (
    Divergence,
    SanitizeReport,
    TraceCollector,
    capture_traces,
    run_sanitized,
)

__all__ = [
    "Divergence",
    "FAMILIES",
    "Facts",
    "Finding",
    "RULES",
    "Rule",
    "SanitizeReport",
    "SuppressionTracker",
    "TraceCollector",
    "analyze",
    "capture_traces",
    "lint_source",
    "run",
    "run_sanitized",
    "suppressed_rules",
]
