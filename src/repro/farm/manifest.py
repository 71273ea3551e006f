"""Resumable farm manifest: per-cell status, result digest, trace hash.

The manifest is the farm's journal and its determinism witness in one
JSON document.  Every completed cell contributes its JSON result, a
digest of that result, and the combined event-trace hash of every
simulator the cell constructed.  ``python -m repro farm --resume`` loads
the manifest, skips cells already ``done``, and re-runs the rest; the
equivalence gate in ``scripts/check.sh`` asserts that a sharded run's
:meth:`Manifest.digest` equals the serial run's.

Determinism discipline: the digest covers only run-invariant content
(plan fingerprint, per-cell status/seed/result digest/trace hash).
Wall-clock timings and shard counts are recorded too, but live outside the
digested view, because a 2-shard run and a 16-shard run of the same
matrix must fingerprint identically.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from typing import Any

MANIFEST_VERSION = 1

#: State-bound declaration for the memory analyser
#: (``repro.analysis.memory``).  ``records``/``timings`` are keyed by
#: cell id — a finite domain fixed by the plan — and are replaced
#: per-plan; the run history is the one append-across-resumes log, so
#: :meth:`Manifest.note_run` keeps only the newest
#: :data:`MAX_RUN_HISTORY` entries (and :meth:`Manifest.load` truncates
#: manifests written before the cap existed).  ``runs`` is excluded from
#: the digest, so bounding it cannot perturb the sharded-equals-serial
#: equivalence gate.
__state_bounds__ = {
    "Manifest": {
        "records": {"bound": 65536, "evicted_by": "lifecycle", "keyed_by": "config"},
        "timings": {"bound": 65536, "evicted_by": "lifecycle", "keyed_by": "config"},
        "runs": {"bound": 32, "evicted_by": "cap", "keyed_by": "internal"},
    },
}

#: How many resumed-run history entries the manifest retains.
MAX_RUN_HISTORY = 32

#: Terminal cell states.  ``done`` cells are skipped on resume; ``failed``
#: and ``timeout`` cells are re-attempted.
DONE = "done"
FAILED = "failed"
TIMEOUT = "timeout"


def result_digest(result: dict[str, Any]) -> str:
    """Digest of a cell's JSON result under canonical encoding."""
    canonical = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(canonical.encode("utf-8"), digest_size=16).hexdigest()


@dataclasses.dataclass(slots=True)
class CellRecord:
    """Terminal outcome of one cell attempt."""

    cell_id: str
    seed: int
    status: str
    result: dict[str, Any] | None = None
    result_digest: str | None = None
    trace_hash: str | None = None
    error: str | None = None

    def to_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "cell_id": self.cell_id,
            "seed": self.seed,
            "status": self.status,
        }
        if self.result is not None:
            doc["result"] = self.result
            doc["result_digest"] = self.result_digest
        if self.trace_hash is not None:
            doc["trace_hash"] = self.trace_hash
        if self.error is not None:
            doc["error"] = self.error
        return doc

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "CellRecord":
        return cls(
            cell_id=doc["cell_id"],
            seed=doc["seed"],
            status=doc["status"],
            result=doc.get("result"),
            result_digest=doc.get("result_digest"),
            trace_hash=doc.get("trace_hash"),
            error=doc.get("error"),
        )


class Manifest:
    """The farm's resumable journal for one (matrix, seed, fast) plan."""

    def __init__(
        self,
        *,
        matrix: str,
        base_seed: int,
        fast: bool,
        plan_digest: str,
        path: str | None = None,
    ):
        self.matrix = matrix
        self.base_seed = base_seed
        self.fast = fast
        self.plan_digest = plan_digest
        self.path = path
        self.records: dict[str, CellRecord] = {}
        #: Non-digested measurement metadata: cell_id -> wall seconds.
        self.timings: dict[str, float] = {}
        #: Non-digested run history (shards, cells run/skipped, wall time).
        self.runs: list[dict[str, Any]] = []

    # -- recording ---------------------------------------------------------

    def record(self, record: CellRecord, *, wall_seconds: float | None = None) -> None:
        self.records[record.cell_id] = record
        if wall_seconds is not None:
            self.timings[record.cell_id] = wall_seconds

    def note_run(self, entry: dict[str, Any]) -> None:
        """Append to the run history, keeping only the newest entries.

        The history is measurement metadata (shards, cells run/skipped,
        wall time); it accumulates across
        every ``--resume`` of the same manifest, so it is the one
        collection here that would otherwise grow without bound.
        """
        self.runs.append(entry)
        if len(self.runs) > MAX_RUN_HISTORY:
            del self.runs[: len(self.runs) - MAX_RUN_HISTORY]

    def status_of(self, cell_id: str) -> str | None:
        record = self.records.get(cell_id)
        return record.status if record is not None else None

    def done_cells(self) -> set[str]:
        return {cid for cid, rec in self.records.items() if rec.status == DONE}

    def failed_cells(self) -> list[str]:
        return sorted(
            cid for cid, rec in self.records.items() if rec.status != DONE
        )

    # -- digest ------------------------------------------------------------

    def digest(self) -> str:
        """Fingerprint of the run-invariant manifest content.

        Serial and sharded executions of the same plan must produce the
        same digest; timings and run history are deliberately excluded.
        """
        view = {
            "matrix": self.matrix,
            "base_seed": self.base_seed,
            "fast": self.fast,
            "plan_digest": self.plan_digest,
            "cells": {
                cid: {
                    "status": rec.status,
                    "seed": rec.seed,
                    "result_digest": rec.result_digest,
                    "trace_hash": rec.trace_hash,
                }
                for cid, rec in self.records.items()
            },
        }
        canonical = json.dumps(view, sort_keys=True, separators=(",", ":"))
        return hashlib.blake2b(canonical.encode("utf-8"), digest_size=16).hexdigest()

    # -- persistence -------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "version": MANIFEST_VERSION,
            "matrix": self.matrix,
            "base_seed": self.base_seed,
            "fast": self.fast,
            "plan_digest": self.plan_digest,
            "digest": self.digest(),
            "cells": {
                cid: rec.to_dict() for cid, rec in sorted(self.records.items())
            },
            "timings": {cid: self.timings[cid] for cid in sorted(self.timings)},
            "runs": self.runs,
        }

    def save(self) -> None:
        """Atomically persist (write-then-rename), if a path is attached."""
        if self.path is None:
            return
        tmp = f"{self.path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, self.path)

    @classmethod
    def load(cls, path: str) -> "Manifest":
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc.get("version") != MANIFEST_VERSION:
            raise ValueError(
                f"{path}: unsupported manifest version {doc.get('version')!r}"
            )
        manifest = cls(
            matrix=doc["matrix"],
            base_seed=doc["base_seed"],
            fast=doc["fast"],
            plan_digest=doc["plan_digest"],
            path=path,
        )
        for cid, rec in doc.get("cells", {}).items():
            manifest.records[cid] = CellRecord.from_dict(rec)
        manifest.timings = dict(doc.get("timings", {}))
        manifest.runs = list(doc.get("runs", []))[-MAX_RUN_HISTORY:]
        return manifest

    def compatible_with(
        self, *, matrix: str, base_seed: int, fast: bool, plan_digest: str
    ) -> bool:
        """True iff a resume against the given plan is valid."""
        return (
            self.matrix == matrix
            and self.base_seed == base_seed
            and self.fast == fast
            and self.plan_digest == plan_digest
        )
