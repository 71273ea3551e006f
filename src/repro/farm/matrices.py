"""Matrix registry: the farm's catalogue of runnable scenario matrices.

A :class:`MatrixDef` binds four pure functions:

* ``plan(seed, fast)`` — expand the matrix into canonical-order cells
  (the owning experiment module is the single source of cell
  definitions);
* ``run_cell(params, seed, fast)`` — execute one cell and return a
  JSON-serialisable result dict (the farm-worker entry point; ``fast``
  is the planned cell's own);
* ``reduce(cells, results)`` — deterministic merge of per-cell results
  *in canonical plan order*, regardless of completion order;
* ``render(reduced)`` — the human-readable table.

Each is a callable or a ``"package.module:attr"`` reference that
:func:`get_matrix` imports on first use — the same lazy references the
``python -m repro`` artefact table uses — so the registry itself stays
import-light and spawn workers and the experiments (which import
:mod:`repro.farm.planner` for cell definitions) never form an import
cycle.
"""

from __future__ import annotations

import dataclasses
import pkgutil
from typing import Any, Callable

from .planner import Cell

#: Hybrid-matrix sweep of spoofed attack rates (requests/sec).
HYBRID_ATTACK_RATES = (0, 100_000, 250_000)

#: Modeled bulk clients per hybrid cell (the north-star scale knob).
HYBRID_CLIENTS = 1_000_000


@dataclasses.dataclass(frozen=True, slots=True)
class MatrixDef:
    """One runnable scenario matrix."""

    name: str
    description: str
    plan: Callable[[int, bool], list[Cell]] | str
    run_cell: Callable[[dict[str, str], int, bool], dict[str, Any]] | str
    reduce: Callable[[list[Cell], list[dict[str, Any]]], Any] | str
    render: Callable[[Any], str] | str


MATRICES: dict[str, MatrixDef] = {}


def register_matrix(mdef: MatrixDef) -> MatrixDef:
    if mdef.name in MATRICES:
        raise ValueError(f"duplicate matrix {mdef.name!r}")
    MATRICES[mdef.name] = mdef
    return mdef


def get_matrix(name: str) -> MatrixDef:
    """The named matrix with its four references resolved to callables."""
    try:
        mdef = MATRICES[name]
    except KeyError:
        known = ", ".join(sorted(MATRICES))
        raise ValueError(f"unknown matrix {name!r} (known: {known})") from None
    fields = ("plan", "run_cell", "reduce", "render")
    refs = {f: ref for f in fields if isinstance(ref := getattr(mdef, f), str)}
    return dataclasses.replace(
        mdef, **{f: pkgutil.resolve_name(ref) for f, ref in refs.items()}
    )


def matrix_names() -> list[str]:
    return sorted(MATRICES)


def _results_in_plan_order(cells: list[Cell], results: list[dict[str, Any]]) -> Any:
    return results


# ---------------------------------------------------------------------------
# faults — the full fault-injection suite (scenario × scheme) — and smoke,
# a tiny subset of it (always the fast windows) for CI equivalence gates
# ---------------------------------------------------------------------------

_FAULTS = "repro.experiments.faults:"

register_matrix(
    MatrixDef(
        name="faults",
        description="fault scenarios × schemes (the `python -m repro faults` table)",
        plan=_FAULTS + "plan_cells",
        run_cell=_FAULTS + "run_matrix_cell",
        reduce=_FAULTS + "reduce_matrix",
        render=_FAULTS + "format_faults",
    )
)

register_matrix(
    MatrixDef(
        name="smoke",
        description="2 fault scenarios × 2 schemes, fast windows (CI equivalence gate)",
        plan=_FAULTS + "plan_smoke_cells",
        run_cell=_FAULTS + "run_matrix_cell",
        reduce=_FAULTS + "reduce_matrix",
        render=_FAULTS + "format_faults",
    )
)


# ---------------------------------------------------------------------------
# selftest — instant synthetic cells exercising the farm's failure paths
# ---------------------------------------------------------------------------

#: Canonical selftest behaviours: well-behaved cells plus one that always
#: crashes, proving per-cell isolation end to end (including in spawned
#: workers, where test-registered matrices don't exist).
SELFTEST_BEHAVIOURS = ("ok-a", "ok-b", "ok-c", "boom")


def _selftest_plan(seed: int, fast: bool) -> list[Cell]:
    import os

    from .planner import expand

    behaviours = SELFTEST_BEHAVIOURS
    if os.environ.get("REPRO_FARM_SELFTEST_HANG"):
        # timeout-path testing: the env knob reaches spawned workers too
        behaviours = behaviours + ("hang",)
    return expand(
        "selftest",
        [("behaviour", behaviours)],
        base_seed=seed,
        fast=fast,
    )


def _selftest_run_cell(params: dict[str, str], seed: int, fast: bool) -> dict[str, Any]:
    behaviour = params["behaviour"]
    if behaviour == "boom":
        raise RuntimeError("selftest cell crashed on purpose")
    if behaviour == "hang":  # reachable only via a custom plan (timeout tests)
        import time

        time.sleep(3600.0)
    return {"behaviour": behaviour, "value": seed % 9973}


def _selftest_render(reduced: Any) -> str:
    rows = ", ".join(f"{row['behaviour']}={row['value']}" for row in reduced)
    return f"selftest: {rows}"


register_matrix(
    MatrixDef(
        name="selftest",
        description="synthetic instant cells, one of which always fails "
        "(exercises crash isolation)",
        plan=_selftest_plan,
        run_cell=_selftest_run_cell,
        reduce=_results_in_plan_order,
        render=_selftest_render,
    )
)


# ---------------------------------------------------------------------------
# hybrid — fluid/packet attack sweep, 10⁶ modeled clients per cell
# ---------------------------------------------------------------------------


def _hybrid_plan(seed: int, fast: bool) -> list[Cell]:
    from .planner import expand

    return expand(
        "hybrid",
        [("attack_rate", HYBRID_ATTACK_RATES), ("protection", ("on", "off"))],
        base_seed=seed,
        fast=fast,
    )


def _hybrid_run_cell(params: dict[str, str], seed: int, fast: bool) -> dict[str, Any]:
    from .hybrid import run_hybrid_point

    kwargs = {"warmup": 0.1, "duration": 0.2} if fast else {}
    point = run_hybrid_point(
        float(params["attack_rate"]),
        params["protection"] == "on",
        seed=seed,
        clients=HYBRID_CLIENTS,
        **kwargs,
    )
    return dataclasses.asdict(point)


def _hybrid_render(reduced: Any) -> str:
    from ..experiments.fluid import FluidModel

    model = FluidModel()
    lines = [
        f"Hybrid fluid/packet sweep ({HYBRID_CLIENTS:,} modeled clients per cell)",
        f"{'attack (K/s)':>12} {'prot':>5} {'bulk srv (K/s)':>14} "
        f"{'model (K/s)':>12} {'fg avail%':>10} {'guard CPU%':>11} "
        f"{'ANS CPU%':>9} {'events':>8}",
    ]
    for row in reduced:
        protection = bool(row["protection"])
        predicted = model.hybrid_served_rate(
            row["fluid_offered_rate"], row["attack_rate"], protection=protection
        )
        lines.append(
            f"{row['attack_rate'] / 1000:>12.0f} {'on' if protection else 'off':>5} "
            f"{row['fluid_served_rate'] / 1000:>14.1f} {predicted / 1000:>12.1f} "
            f"{row['foreground_availability'] * 100:>10.1f} "
            f"{row['guard_cpu'] * 100:>11.1f} {row['ans_cpu'] * 100:>9.1f} "
            f"{row['events']:>8}"
        )
    return "\n".join(lines)


register_matrix(
    MatrixDef(
        name="hybrid",
        description=(
            f"hybrid fluid/packet attack sweep, {HYBRID_CLIENTS:,} modeled "
            "clients per cell"
        ),
        plan=_hybrid_plan,
        run_cell=_hybrid_run_cell,
        reduce=_results_in_plan_order,
        render=_hybrid_render,
    )
)
