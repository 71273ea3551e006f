"""``BENCH_analysis.json``: the analyzer's own wall-clock trajectory.

The analysis CLI parses every file exactly once and shares the ASTs
across all rule families; this module records what that sharing buys.
``--bench FILE`` appends a dated entry (total seconds + per-phase
breakdown, including the one shared ``parse`` phase) to the document's
``trajectory`` (the shape every ``scripts/BENCH_*.json`` shares), so
regressions in analyzer cost show up as history rather than vibes.
"""

from __future__ import annotations

from typing import Iterable

from ..obs.trajectory import append_trajectory


def write_bench_analysis(
    path: str,
    timings: Iterable[tuple[str, float]],
    *,
    date: str | None = None,
) -> dict:
    """Write/append the analyzer timing document at ``path``.

    ``timings`` is the ordered (phase, seconds) list the CLI measured.
    An existing document's ``trajectory`` is preserved and the new run
    appended (:func:`repro.obs.trajectory.append_trajectory`).
    """
    phases = {name: round(seconds, 6) for name, seconds in timings}
    total = round(sum(phases.values()), 6)
    return append_trajectory(
        path,
        benchmark="analysis-cli",
        unit="seconds",
        value=total,
        entry={"seconds": total, "phases": phases},
        detail={
            "phases": phases,
            "note": (
                "one shared parse and one walk feed every rule family; 'parse' "
                "(read + ast.parse + node index + declarations) is counted once, "
                "not per family"
            ),
        },
        date=date,
    )
