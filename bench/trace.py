"""Layer tracer: host time split by which ``repro`` module spends it.

A ``sys.setprofile`` hook installed from here — nothing under ``src/`` is
edited.  A *span* opens when control enters a function owned by a
different layer than its caller and closes when that function returns.
The owner of a function is the module under ``src/repro`` that defines
it; code outside ``src/repro`` (the standard library, C callees such as
``hashlib`` and ``heapq``, ``IPv4Address.__hash__``, this package) opens
no span, so its time is charged to the nearest ``repro`` caller.  A
span's self time is its duration minus the spans opened inside it, which
makes the layers' self times sum to the traced total by construction.

Only the aggregate is kept: one ``caller layer -> callee layer`` edge
table of (calls, inclusive seconds, self seconds).  The clock is read
only when a span opens or closes, not on every call.
"""

from __future__ import annotations

import os
import sys
import time

#: The 16 named layers plus the bucket for every other ``repro`` module.
LAYERS = (
    "dnswire",
    "guard.core",
    "guard.pipeline",
    "guard.local_guard",
    "guard.tcp_scheme",
    "netsim.simulator",
    "netsim.link",
    "netsim.node",
    "netsim.cpu",
    "netsim.udp",
    "netsim.tcp",
    "netsim.packet",
    "dns.loadgen",
    "dns.authoritative",
    "dns.framing",
    "attack",
    "other",
)
OTHER = LAYERS.index("other")

#: Not a layer: the code-cache value for functions outside ``src/repro``.
_INHERIT = len(LAYERS)

#: Counted functions carry their counter slot above this bit of the cached
#: value, so the common path pays one integer compare for the feature.
_SLOT_SHIFT = 8


def layer_index(relative_path: str) -> int:
    """Layer of a module given its path relative to ``src/repro``."""
    parts = relative_path[:-3].split(os.sep)  # drop ".py"
    if parts[0] in ("dnswire", "attack"):
        name = parts[0]
    elif parts[:2] == ["guard", "core"]:
        name = "guard.core"
    else:
        name = ".".join(parts[:2])
    return LAYERS.index(name) if name in LAYERS else OTHER


class LayerTracer:
    """Aggregates cross-layer spans for the code run under :meth:`run`.

    ``counted`` names functions (by code object) whose calls are counted
    whether or not they cross a layer.  Set ``sampler`` to ``(name, fn)``
    before :meth:`run` to read ``fn()`` on every call of the counted
    function ``name`` and keep its maximum.  Calls made by the hook itself
    are not profiled.
    """

    def __init__(self, package_dir: str, counted=None):
        self._prefix = package_dir.rstrip(os.sep) + os.sep
        self._code_layer: dict = {}
        self._slots: dict = {}
        self.counts: dict[str, int] = {}
        for slot, (name, code) in enumerate((counted or {}).items(), start=1):
            self._slots[code] = slot
            self.counts[name] = 0
        self.sampler = None
        self.sample_max = 0
        #: (caller layer, callee layer) -> [calls, inclusive_s, self_s]
        self.edges: dict[tuple[int, int], list] = {}
        self.total_s = 0.0

    def _resolve(self, code) -> int:
        filename = code.co_filename
        if filename.startswith(self._prefix):
            value = layer_index(filename[len(self._prefix):])
        else:
            value = _INHERIT
        value |= self._slots.get(code, 0) << _SLOT_SHIFT
        self._code_layer[code] = value
        return value

    def run(self, fn):
        """Call ``fn()`` with the hook installed; returns its result."""
        code_layer = self._code_layer
        resolve = self._resolve
        edges = self.edges
        names = list(self.counts)
        tallies = [0] * (len(names) + 1)
        sample_slot = names.index(self.sampler[0]) + 1 if self.sampler else 0
        sample = self.sampler[1] if self.sampler else None
        clock = time.perf_counter
        frames: list = []  # one entry per live Python frame: its span or None
        root = [edges.setdefault((OTHER, OTHER), [0, 0.0, 0.0]), 0.0, 0.0, OTHER]
        open_spans = [root]
        current = OTHER
        sample_max = 0

        def hook(frame, event, arg):
            nonlocal current, sample_max
            if event == "call":
                code = frame.f_code
                layer = code_layer.get(code)
                if layer is None:
                    layer = resolve(code)
                if layer > _INHERIT:
                    slot = layer >> _SLOT_SHIFT
                    tallies[slot] += 1
                    if slot == sample_slot:
                        depth = sample()
                        if depth > sample_max:
                            sample_max = depth
                    layer &= (1 << _SLOT_SHIFT) - 1
                if layer == current or layer == _INHERIT:
                    frames.append(None)
                    return
                key = (current, layer)
                edge = edges.get(key)
                if edge is None:
                    edge = edges[key] = [0, 0.0, 0.0]
                span = [edge, clock(), 0.0, current]
                frames.append(span)
                open_spans.append(span)
                current = layer
            elif event == "return" and frames:
                span = frames.pop()
                if span is not None:
                    inclusive = clock() - span[1]
                    edge = span[0]
                    edge[0] += 1
                    edge[1] += inclusive
                    edge[2] += inclusive - span[2]
                    open_spans.pop()
                    open_spans[-1][2] += inclusive
                    current = span[3]

        root[1] = clock()
        sys.setprofile(hook)
        try:
            return fn()
        finally:
            sys.setprofile(None)
            inclusive = clock() - root[1]
            root[0][0] += 1
            root[0][1] += inclusive
            root[0][2] += inclusive - root[2]
            self.total_s += inclusive
            self.sample_max = max(self.sample_max, sample_max)
            for name, tally in zip(names, tallies[1:]):
                self.counts[name] += tally

    # -- results -------------------------------------------------------------

    def self_seconds(self) -> list[float]:
        """Self time per layer, indexed like :data:`LAYERS`."""
        out = [0.0] * len(LAYERS)
        for (_, callee), (_, _, self_s) in self.edges.items():
            out[callee] += self_s
        return out

    def entries(self) -> list[int]:
        """Entries into each layer from a different layer."""
        out = [0] * len(LAYERS)
        for (caller, callee), (calls, _, _) in self.edges.items():
            if caller != callee:
                out[callee] += calls
        return out

    def edge_table(self) -> list[dict]:
        """The edge table as JSON-ready rows, largest inclusive time first."""
        rows = [
            {
                "caller": LAYERS[caller] if caller != callee else "-",
                "callee": LAYERS[callee],
                "calls": calls,
                "inclusive_s": inclusive,
                "self_s": self_s,
            }
            for (caller, callee), (calls, inclusive, self_s) in self.edges.items()
        ]
        rows.sort(key=lambda row: -row["inclusive_s"])
        return rows
