"""Shared helpers for the paper-shape tests (``pytest benchmarks/``).

These are tests, not timings: each regenerates one of the paper's tables
or figures (in a reduced-but-representative configuration) through the
same entry point ``python -m repro <command>`` uses, records the
paper-vs-measured rows under ``results/``, and asserts the *shape* of
the result — who wins, by roughly what factor, where the crossovers
fall.  Absolute equality with the paper's testbed is not expected (see
DESIGN.md).  The repo's performance benchmark is ``python3 -m bench``.
"""

from __future__ import annotations

import pathlib

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def record(name: str, text: str) -> None:
    """Print a reproduced table/figure and persist it for EXPERIMENTS.md."""
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
