"""State-exhaustion analysis (the M-rules).

The memory layer proves the guard cannot be memory-DoSed: every
long-lived collection an attacker can grow is declared in a module-level
``__state_bounds__`` (capacity + eviction mechanism + key provenance),
and a static pass composes the taint surface from ``__trust_boundary__``
with the per-event hot set (:mod:`.hotpath`) to verify the declarations are
complete (M001), enforced at every insert site (M002), swept from a
reachable scheduled callback (M003), bypass-proof on early-return paths
(M004) and growth-free under self-reschedule (M005).  The declared
numbers themselves are held by ``tests/guard/test_state_bounds.py``,
which drives every attacker-keyed table past its bound.

See DESIGN.md ("State-exhaustion model") for the mapping to the paper's
§III soft-state design.
"""
