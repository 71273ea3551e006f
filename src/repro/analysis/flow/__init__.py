"""Taint dataflow over the guards' trust boundaries.

The AST lint (D/W rules) catches syntactic hazards; this package checks
the *dataflow* facts the paper's §III security argument rests on
(:mod:`.taint` over the walker in :mod:`.core`):

* **T001** — no guard admission may depend on an attacker-controlled
  packet field unless a registered sanitizer (cookie verify, SYN-cookie
  validate, ISN echo check) dominates it.  ``repro.netsim.tcp`` declares
  its inbound segments tainted until an ISN comparison, so the TCP
  handshake's proof of address (§III.C) is checked here too;
* **T002** — cookie key material must never flow into logs, ``__repr__``
  output, or obs exporters.

Guard schemes self-describe their trust boundary with a module-level
``__trust_boundary__`` literal (:mod:`repro.analysis.declarations`).
Everything is stdlib-``ast`` static analysis: no analysed module is ever
imported or executed.
"""
