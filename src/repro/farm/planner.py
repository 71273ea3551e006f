"""Scenario-matrix planner: addressable cells with stable per-cell seeds.

A *matrix* is a named experiment family (the faults suite, its smoke
subset, ...).  The planner expands its axes — scenario × scheme, or
whatever the matrix declares — into an
ordered list of :class:`Cell` objects.  Two properties make the farm's
determinism contract possible:

* **Canonical order.**  ``expand`` walks the axes in declaration order
  (itertools.product), so the cell list — and therefore the reduce order
  and every digest derived from it — is identical on every machine, for
  every shard count, on every resume.

* **Stable per-cell seeds.**  A cell's simulation seed is derived from
  ``(base_seed, cell_id)`` through the same BLAKE2b construction as
  :meth:`repro.netsim.Simulator.child_rng`: same base seed and cell id,
  same cell seed — regardless of which worker runs the cell, in which
  order, or whether it is re-run after a resume.  Running a cell solo is
  bit-identical to running it as shard 7 of 16.

This module is dependency-free (no repro imports) so experiment modules
can import it without cycles: the experiments *define* their cells here
and the farm runner *schedules* them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
from typing import Sequence


def derive_cell_seed(base_seed: int, cell_id: str) -> int:
    """A cell's simulation seed, stable under sharding and resume.

    Mirrors ``Simulator.child_rng``'s derivation — BLAKE2b over
    ``(seed, name)`` only — so a cell's seed depends on nothing but the
    base seed and its own identity.
    """
    material = f"{base_seed}\x00{cell_id}".encode("utf-8", "backslashreplace")
    derived = hashlib.blake2b(material, digest_size=8).digest()
    return int.from_bytes(derived, "big")


@dataclasses.dataclass(frozen=True, slots=True)
class Cell:
    """One addressable point of a scenario matrix.

    ``params`` is an ordered tuple of ``(axis, value)`` string pairs in
    the matrix's canonical axis order; it *is* the cell's identity.
    """

    matrix: str
    params: tuple[tuple[str, str], ...]
    base_seed: int
    fast: bool

    @property
    def cell_id(self) -> str:
        """Canonical address, e.g. ``faults/scenario=uplink-flap/scheme=tcp``."""
        parts = "/".join(f"{key}={value}" for key, value in self.params)
        return f"{self.matrix}/{parts}" if parts else self.matrix

    @property
    def seed(self) -> int:
        """The derived per-cell simulation seed (see :func:`derive_cell_seed`)."""
        return derive_cell_seed(self.base_seed, self.cell_id)

    def param_dict(self) -> dict[str, str]:
        return dict(self.params)


def expand(
    matrix: str,
    axes: Sequence[tuple[str, Sequence[object]]],
    *,
    base_seed: int,
    fast: bool,
) -> list[Cell]:
    """Expand ``axes`` into cells in canonical (declaration-major) order.

    Axis values are stringified into the cell id, so they must have
    stable ``str()`` representations (strings, ints, floats).
    """
    names = [name for name, _ in axes]
    value_lists = [[str(v) for v in values] for _, values in axes]
    cells = []
    for combo in itertools.product(*value_lists):
        params = tuple(zip(names, combo))
        cells.append(Cell(matrix=matrix, params=params, base_seed=base_seed, fast=fast))
    return cells


def plan_digest(cells: Sequence[Cell]) -> str:
    """Fingerprint of a plan: matrix, cell ids and derived seeds, in order.

    Two manifests are comparable (and a resume is valid) iff their plan
    digests match — same matrix, same axes, same base seed, same fast
    flag, same cell ordering.
    """
    h = hashlib.blake2b(digest_size=16)
    for cell in cells:
        h.update(f"{cell.cell_id}\x00{cell.seed}\x00{int(cell.fast)}\x01".encode())
    return h.hexdigest()
