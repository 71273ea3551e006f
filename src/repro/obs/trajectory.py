"""The one writer of ``BENCH_*.json`` trajectory documents.

Every recorded benchmark (analysis CLI, adaptive control) is one
JSON document with a headline ``value`` and a ``trajectory`` of dated
entries.  Rewriting the document keeps the recorded trajectory and
appends to it, so regenerating a number never erases the history of what
earlier work bought.  Standard library only:
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
) -> dict:
    """Rewrite the document at ``path`` with ``entry`` appended, dated.

    A missing or unreadable previous document starts a fresh trajectory.
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
