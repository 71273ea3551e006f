"""The import-layering manifest: which package lives in which layer.

The paper's guard is a separable bump-in-the-wire module (§III): its
decision logic does not depend on the transport it fronts.  The repo
makes that structural with three layers,

* **pure-core** — decision state machines that are functions of their
  arguments plus the injected :mod:`repro.guard.core.ports` seams
  (Clock/Rng/Emit).  No simulator, no sockets, no wall clock, no OS
  entropy.
* **adapter** — the simulator-facing shims: they move packets, charge
  CPU costs and schedule callbacks, delegating every decision down into
  the core.
* **platform** — the event-driven packet simulator itself
  (``repro.netsim``) and the observability stack (``repro.obs``).

Imports may only point *down* this list.  The manifest below assigns a
layer to each package prefix (longest prefix wins); each package root
self-describes with a module-level ``__layer__`` literal, and L005
reports drift between the two.  The manifest is a plain dict so toy
fixtures in tests can substitute their own.
"""

from __future__ import annotations

#: The declaration name modules carry (a module-level string literal).
DECL_NAME = "__layer__"

#: The three recognised layers, most- to least-restricted.
LAYERS: tuple[str, ...] = ("pure-core", "adapter", "platform")

#: Package prefix -> layer for the repo.  Longest prefix wins, so
#: ``repro.guard.core`` is pure even though ``repro.guard`` is an
#: adapter package.  Packages not listed are outside the layering
#: (analysis tooling, experiment drivers, attack generators).
DEFAULT_MANIFEST: dict[str, str] = {
    "repro.guard.core": "pure-core",
    "repro.dnswire": "pure-core",
    "repro.guard": "adapter",
    "repro.control": "adapter",
    "repro.netsim": "platform",
    "repro.obs": "platform",
}

#: Stdlib roots a pure-core module must not import: event loops,
#: sockets, threads/processes, clocks and OS entropy.  Everything the
#: core needs from this list arrives through the injected ports.
FORBIDDEN_STDLIB: frozenset[str] = frozenset(
    {
        "asyncio",
        "concurrent",
        "multiprocessing",
        "os",
        "random",
        "secrets",
        "select",
        "selectors",
        "signal",
        "socket",
        "socketserver",
        "ssl",
        "subprocess",
        "threading",
        "time",
    }
)


def layer_of(module_name: str, manifest: dict[str, str]) -> str | None:
    """The manifest layer for a dotted module name (longest prefix wins),
    or ``None`` when no prefix covers it."""
    best: str | None = None
    best_len = -1
    for prefix, layer in manifest.items():
        if module_name == prefix or module_name.startswith(prefix + "."):
            if len(prefix) > best_len:
                best = layer
                best_len = len(prefix)
    return best


def pure_prefixes(manifest: dict[str, str]) -> list[str]:
    """The manifest's pure-core package prefixes, sorted."""
    return sorted(p for p, layer in manifest.items() if layer == "pure-core")
