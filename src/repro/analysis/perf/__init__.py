"""Hot-path cost analysis (the P-rules).

The perf layer is the cost counterpart of the T/S (flow) and R (races)
layers: it computes the hot-path call graph from schedule-site callbacks
and ``Node.receive`` reachability and reports per-event cost patterns —
unslotted allocations, redundant wire encodings, closure churn, unguarded
formatting, O(n) scans and constant-delay heap pushes — so the ROADMAP-1
optimization arc has both a worklist and a regression gate.

See DESIGN.md ("Hot-path cost model") for the hot-path definition and the
rule-to-optimization map.
"""

from .hotpath import HotFunction, HotPaths, compute_hot_paths

__all__ = ["HotFunction", "HotPaths", "compute_hot_paths"]
