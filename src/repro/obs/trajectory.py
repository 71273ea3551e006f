"""The one writer of ``BENCH_*.json`` trajectory documents.

Every recorded benchmark (event-loop profile, analysis CLI, farm,
adaptive control) is one JSON document with a headline ``value`` and a
``trajectory`` of dated entries.  Rewriting the document keeps the
recorded trajectory and appends to it, so regenerating a number never
erases the history of what earlier work bought.  Standard library only:
every layer that records a benchmark imports this module.
"""

from __future__ import annotations

import json
import time


def append_trajectory(
    path: str,
    *,
    benchmark: str,
    unit: str,
    value: float,
    entry: dict,
    detail: dict | None = None,
    date: str | None = None,
    legacy_key: str | None = None,
) -> dict:
    """Rewrite the document at ``path`` with ``entry`` appended, dated.

    A missing or unreadable previous document starts a fresh trajectory.
    ``legacy_key`` migrates a document written before trajectories
    existed: its headline ``value`` is kept as a first entry under that
    key.
    """
    if date is None:
        # host date on a host-time measurement — never feeds a simulation
        date = time.strftime("%Y-%m-%d")
    trajectory: list[dict] = []
    try:
        with open(path, encoding="utf-8") as fh:
            previous = json.load(fh)
    except (OSError, ValueError):
        previous = None
    if isinstance(previous, dict):
        recorded = previous.get("trajectory")
        if isinstance(recorded, list):
            trajectory = list(recorded)
        elif legacy_key is not None and "value" in previous:
            trajectory.append(
                {"date": "(before trajectory tracking)", legacy_key: previous["value"]}
            )
    trajectory.append({"date": date, **entry})
    doc: dict = {
        "benchmark": benchmark,
        "unit": unit,
        "value": value,
        "trajectory": trajectory,
    }
    if detail is not None:
        doc["detail"] = detail
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return doc
