"""Farm worker: the per-cell executor shared by serial and sharded runs.

:func:`execute_cell` is the *only* way a cell runs — in-process for
``--shards 1`` and inside a spawned worker for ``--shards N`` — so both
paths produce the same result dict, the same canonical result digest,
and the same combined event-trace hash.  :func:`worker_main` is the
child-process loop: pull a task, announce it (so the parent can enforce
the per-cell timeout), run it, report a terminal record.  A cell that
raises is reported as ``failed`` and the worker moves on — one diverging
cell fails that cell, not the run.

Determinism discipline: workers hold no randomness of their own.  Every
stochastic choice inside a cell flows from the cell's derived seed
(``Cell.seed`` -> ``Simulator(seed=...)``); analysis rule W002 flags any
``random`` usage in this package.
"""

from __future__ import annotations

import traceback

from .manifest import DONE, FAILED, CellRecord, result_digest


def execute_cell(
    matrix_name: str, cell_id: str, params: dict[str, str], seed: int, fast: bool
) -> CellRecord:
    """Run one cell under trace capture; returns a terminal record.

    The combined trace hash covers every simulator the cell constructs
    (in construction order), exactly as the determinism sanitizer would
    see them — it is the farm's per-cell ``--sanitize`` witness.
    """
    from ..analysis.sanitizer import capture_traces
    from .matrices import get_matrix

    mdef = get_matrix(matrix_name)
    with capture_traces() as collector:
        result = mdef.run_cell(params, seed, fast)
    return CellRecord(
        cell_id=cell_id,
        seed=seed,
        status=DONE,
        result=result,
        result_digest=result_digest(result),
        trace_hash=collector.combined_hexdigest(),
    )


def worker_main(worker_idx: int, matrix_name: str, task_q, result_q) -> None:
    """Child-process loop: tasks in, ``(kind, ...)`` messages out.

    Messages: ``("start", idx, cell_id)`` before a cell begins (the
    parent's timeout clock starts here), then ``("done", idx, record)``
    or ``("error", idx, cell_id, seed, traceback)``.  A ``None`` task is
    the shutdown sentinel.
    """
    while True:
        task = task_q.get()
        if task is None:
            return
        cell_id, params, seed, fast = task
        result_q.put(("start", worker_idx, cell_id))
        try:
            record = execute_cell(matrix_name, cell_id, params, seed, fast)
        except Exception:
            result_q.put(("error", worker_idx, cell_id, seed, traceback.format_exc()))
        else:
            result_q.put(("done", worker_idx, record.to_dict()))


def failure_record(cell_id: str, seed: int, error: str, *, status: str = FAILED) -> CellRecord:
    """A terminal record for a cell that crashed, died, or timed out."""
    return CellRecord(cell_id=cell_id, seed=seed, status=status, error=error)
