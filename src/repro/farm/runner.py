"""Sharded farm runner: bounded-queue workers, timeouts, resumable merge.

Execution model:

* ``shards == 1`` — every pending cell runs in-process through the same
  :func:`repro.farm.worker.execute_cell` the workers use;
* ``shards > 1`` — a pool of ``spawn`` worker processes pulls cell
  descriptors from a bounded task queue and reports terminal records on
  a result queue.  The parent enforces a wall-clock per-cell timeout
  (a stuck cell's worker is killed and respawned; the cell is recorded
  ``timeout``), and a worker that dies mid-cell fails *that cell only*.

Whatever the shard count or completion order, the manifest digest and
the reduced output are identical: results are merged strictly in the
planner's canonical cell order, and each cell's result/trace digest
depends only on ``(matrix, params, derived seed, fast)``.

Wall-clock reads in this module are orchestration-plane only (timeouts,
queue polling, the run summary's wall time); they never feed a simulation,
which is why the inline ``allow[D001]`` markers are sound.
"""

from __future__ import annotations

import dataclasses
import os
import queue as queue_mod
import sys
import time
from typing import Any

from .manifest import DONE, TIMEOUT, CellRecord, Manifest
from .matrices import get_matrix
from .planner import Cell, plan_digest
from .worker import execute_cell, failure_record, worker_main

#: Wall-clock ceiling per cell; a cell still running past this is killed
#: and recorded ``timeout`` (crash isolation, not run abortion).
DEFAULT_CELL_TIMEOUT = 300.0

#: Result-queue poll interval while supervising workers (seconds).
_POLL_INTERVAL = 0.1

#: Bounded task-queue capacity factor (slots per worker).
_QUEUE_SLOTS_PER_WORKER = 2


@dataclasses.dataclass(slots=True)
class FarmResult:
    """Outcome of one farm invocation."""

    matrix: str
    manifest: Manifest
    cells: list[Cell]
    ran: int
    skipped: int
    failed: list[str]
    wall_seconds: float
    shards: int
    reduced: Any = None
    rendered: str | None = None

    @property
    def complete(self) -> bool:
        """True iff every planned cell is ``done`` in the manifest."""
        done = self.manifest.done_cells()
        return all(cell.cell_id in done for cell in self.cells)

    def summary(self) -> str:
        state = "complete" if self.complete else "incomplete"
        lines = [
            f"farm: {self.matrix} — {len(self.cells)} cell(s), "
            f"{self.ran} ran, {self.skipped} resumed-skip, "
            f"{len(self.failed)} failed/timeout ({state})",
            f"shards: {self.shards}, wall: {self.wall_seconds:.2f}s",
            f"manifest digest: {self.manifest.digest()}",
        ]
        for cell_id in self.failed:
            record = self.manifest.records[cell_id]
            first_line = (record.error or "?").strip().splitlines()[-1]
            lines.append(f"  {record.status}: {cell_id} — {first_line}")
        return "\n".join(lines)


def _prepare_manifest(
    matrix: str,
    cells: list[Cell],
    *,
    base_seed: int,
    fast: bool,
    manifest_path: str | None,
    resume: bool,
) -> Manifest:
    digest = plan_digest(cells)
    if resume:
        if manifest_path is None:
            raise ValueError("--resume requires a manifest path")
        manifest = Manifest.load(manifest_path)
        if not manifest.compatible_with(
            matrix=matrix, base_seed=base_seed, fast=fast, plan_digest=digest
        ):
            raise ValueError(
                f"{manifest_path}: manifest does not match this plan "
                f"(matrix/seed/fast/axes changed) — rerun without --resume"
            )
        return manifest
    return Manifest(
        matrix=matrix,
        base_seed=base_seed,
        fast=fast,
        plan_digest=digest,
        path=manifest_path,
    )


def _run_serial(mdef, pending: list[Cell], manifest: Manifest) -> None:
    for cell in pending:
        t0 = time.monotonic()  # repro: allow[D001] - orchestration timing only
        try:
            record = execute_cell(
                mdef.name, cell.cell_id, cell.param_dict(), cell.seed, cell.fast
            )
        except Exception:
            import traceback

            record = failure_record(cell.cell_id, cell.seed, traceback.format_exc())
        wall = time.monotonic() - t0  # repro: allow[D001] - orchestration timing only
        manifest.record(record, wall_seconds=wall)
        manifest.save()


class _Pool:
    """Spawned worker pool with per-cell timeout and crash isolation."""

    def __init__(self, mdef, shards: int, task_capacity: int):
        import multiprocessing

        self.ctx = multiprocessing.get_context("spawn")
        self.mdef = mdef
        self.shards = shards
        self.task_q = self.ctx.Queue(maxsize=task_capacity)
        self.result_q = self.ctx.Queue()
        self.workers: dict[int, Any] = {}
        self.inflight: dict[int, tuple[str, float]] = {}
        self._next_idx = 0

    def spawn(self) -> int:
        idx = self._next_idx
        self._next_idx += 1
        proc = self.ctx.Process(
            target=worker_main,
            args=(idx, self.mdef.name, self.task_q, self.result_q),
            daemon=True,
        )
        proc.start()
        self.workers[idx] = proc
        return idx

    def kill(self, idx: int) -> None:
        proc = self.workers.pop(idx, None)
        self.inflight.pop(idx, None)
        if proc is not None and proc.is_alive():
            proc.kill()
            proc.join(timeout=5.0)

    def shutdown(self) -> None:
        for _ in range(len(self.workers)):
            try:
                self.task_q.put_nowait(None)
            except queue_mod.Full:
                break
        for idx in list(self.workers):
            proc = self.workers[idx]
            proc.join(timeout=2.0)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=5.0)
        self.workers.clear()


def _ensure_child_import_path() -> None:
    """Make sure spawned children can ``import repro``.

    Spawn re-imports this package from scratch; when the parent found it
    via ``sys.path`` manipulation rather than ``PYTHONPATH``, propagate
    the package root through the environment so children resolve it too.
    """
    import repro

    src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    existing = os.environ.get("PYTHONPATH", "")
    parts = existing.split(os.pathsep) if existing else []
    if src_root not in parts:
        os.environ["PYTHONPATH"] = (
            src_root + (os.pathsep + existing if existing else "")
        )


def _run_sharded(
    mdef,
    pending: list[Cell],
    manifest: Manifest,
    *,
    shards: int,
    cell_timeout: float,
) -> None:
    _ensure_child_import_path()
    by_id = {cell.cell_id: cell for cell in pending}
    tasks = [
        (cell.cell_id, cell.param_dict(), cell.seed, cell.fast) for cell in pending
    ]
    task_iter = iter(tasks)
    pool = _Pool(mdef, shards, task_capacity=_QUEUE_SLOTS_PER_WORKER * shards)
    started: dict[str, float] = {}
    resolved = 0
    try:
        for _ in range(min(shards, len(tasks))):
            pool.spawn()
        next_task = next(task_iter, None)
        while resolved < len(tasks):
            # top up the bounded task queue
            while next_task is not None:
                try:
                    pool.task_q.put_nowait(next_task)
                except queue_mod.Full:
                    break
                next_task = next(task_iter, None)
            try:
                msg = pool.result_q.get(timeout=_POLL_INTERVAL)
            except queue_mod.Empty:
                msg = None
            if msg is not None:
                kind = msg[0]
                if kind == "start":
                    _, idx, cell_id = msg
                    now = time.monotonic()  # repro: allow[D001] - cell timeout clock
                    pool.inflight[idx] = (cell_id, now)
                    started[cell_id] = now
                elif kind == "done":
                    _, idx, doc = msg
                    record = CellRecord.from_dict(doc)
                    now = time.monotonic()  # repro: allow[D001] - cell timeout clock
                    wall = now - started.get(record.cell_id, now)
                    manifest.record(record, wall_seconds=wall)
                    manifest.save()
                    pool.inflight.pop(idx, None)
                    resolved += 1
                elif kind == "error":
                    _, idx, cell_id, seed, tb = msg
                    manifest.record(failure_record(cell_id, seed, tb))
                    manifest.save()
                    pool.inflight.pop(idx, None)
                    resolved += 1
            # enforce the per-cell wall-clock timeout
            now = time.monotonic()  # repro: allow[D001] - cell timeout clock
            for idx, (cell_id, t0) in list(pool.inflight.items()):
                if now - t0 > cell_timeout:
                    pool.kill(idx)
                    cell = by_id[cell_id]
                    manifest.record(
                        failure_record(
                            cell_id,
                            cell.seed,
                            f"cell exceeded --cell-timeout {cell_timeout:.0f}s",
                            status=TIMEOUT,
                        )
                    )
                    manifest.save()
                    resolved += 1
                    if resolved < len(tasks):
                        pool.spawn()
            # a worker that died without reporting fails its in-flight cell
            for idx, proc in list(pool.workers.items()):
                if proc.is_alive():
                    continue
                entry = pool.inflight.pop(idx, None)
                pool.workers.pop(idx, None)
                if entry is not None:
                    cell_id, _ = entry
                    cell = by_id[cell_id]
                    manifest.record(
                        failure_record(
                            cell_id,
                            cell.seed,
                            f"worker process died (exitcode {proc.exitcode})",
                        )
                    )
                    manifest.save()
                    resolved += 1
                if resolved < len(tasks) and (
                    next_task is not None or pool.inflight
                ):
                    pool.spawn()
    finally:
        pool.shutdown()


def run_farm(
    matrix_name: str,
    *,
    seed: int = 0,
    fast: bool = False,
    shards: int = 1,
    manifest_path: str | None = None,
    resume: bool = False,
    cell_timeout: float = DEFAULT_CELL_TIMEOUT,
    stop_after: int | None = None,
) -> FarmResult:
    """Plan, execute (serial or sharded), and deterministically reduce.

    ``stop_after`` truncates this invocation to the first N pending cells
    — a deterministic stand-in for a killed run, used by the resume gate
    in CI.  The reduce step only happens once *every* planned cell is
    ``done`` in the manifest.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    mdef = get_matrix(matrix_name)
    cells = mdef.plan(seed, fast)
    manifest = _prepare_manifest(
        matrix_name,
        cells,
        base_seed=seed,
        fast=fast,
        manifest_path=manifest_path,
        resume=resume,
    )
    done = manifest.done_cells()
    pending = [cell for cell in cells if cell.cell_id not in done]
    skipped = len(cells) - len(pending)
    if stop_after is not None:
        pending = pending[:stop_after]

    t0 = time.monotonic()  # repro: allow[D001] - run-summary wall time
    if pending:
        if shards == 1:
            _run_serial(mdef, pending, manifest)
        else:
            _run_sharded(
                mdef,
                pending,
                manifest,
                shards=min(shards, len(pending)),
                cell_timeout=cell_timeout,
            )
    wall = time.monotonic() - t0  # repro: allow[D001] - run-summary wall time

    manifest.note_run(
        {
            "shards": shards,
            "cells_ran": len(pending),
            "cells_skipped": skipped,
            "wall_seconds": wall,
        }
    )
    manifest.save()

    result = FarmResult(
        matrix=matrix_name,
        manifest=manifest,
        cells=cells,
        ran=len(pending),
        skipped=skipped,
        failed=manifest.failed_cells(),
        wall_seconds=wall,
        shards=shards,
    )
    if result.complete:
        ordered = [manifest.records[cell.cell_id].result for cell in cells]
        result.reduced = mdef.reduce(cells, ordered)
        result.rendered = mdef.render(result.reduced)
    return result


def main_summary(result: FarmResult, *, out=None) -> None:
    """Print the rendered table (when complete) plus the run summary."""
    out = out if out is not None else sys.stdout
    if result.rendered is not None:
        print(result.rendered, file=out)
        print("", file=out)
    print(result.summary(), file=out)
