"""repro.farm — sharded scenario farm with deterministic merge.

Layers:

* :mod:`repro.farm.planner` — matrix expansion into addressable cells
  with stable per-cell seeds (canonical order, BLAKE2b derivation);
* :mod:`repro.farm.manifest` / :mod:`repro.farm.worker` /
  :mod:`repro.farm.runner` — resumable multi-process execution with
  per-cell crash isolation and a run-invariant manifest digest;
* :mod:`repro.farm.hybrid` — the fluid/packet client mode (imported
  lazily by the matrices that need it; deliberately not re-exported
  here to keep ``import repro.farm`` light in spawn workers).

The contract: a cell's result and trace hash depend only on
``(matrix, params, derived seed, fast)`` — never on shard count,
completion order, or resume history.
"""

from .manifest import CellRecord, Manifest, result_digest
from .matrices import MATRICES, MatrixDef, get_matrix, matrix_names, register_matrix
from .planner import Cell, derive_cell_seed, expand, plan_digest
from .runner import DEFAULT_CELL_TIMEOUT, FarmResult, run_farm

__all__ = [
    "Cell",
    "CellRecord",
    "DEFAULT_CELL_TIMEOUT",
    "FarmResult",
    "Manifest",
    "MATRICES",
    "MatrixDef",
    "derive_cell_seed",
    "expand",
    "get_matrix",
    "matrix_names",
    "plan_digest",
    "register_matrix",
    "result_digest",
    "run_farm",
]
