"""Every repository path the documents name in backticks exists.

A path is a backticked token holding a ``/`` and ending in a file extension;
it resolves from the repository root or, as the documents name package
modules (``analysis/engine.py``), from ``src/repro``.  A bare file name
(``tcp.py``, ``ipaddress.py``) is not checked: it may be the stdlib's or a
run's output.  ``bench/README.md`` is not scanned: it changes only with the
benchmark it documents.
"""

import pathlib
import re

import pytest

REPO = pathlib.Path(__file__).resolve().parents[2]

DOCS = ("DESIGN.md", "README.md", "EXPERIMENTS.md")

PATH = re.compile(r"`([\w./-]+/[\w.-]+\.[A-Za-z]+)`")


def named_paths(doc: str) -> list[str]:
    return sorted(set(PATH.findall((REPO / doc).read_text(encoding="utf-8"))))


@pytest.mark.parametrize("doc", DOCS)
def test_every_backticked_path_exists(doc):
    assert named_paths(doc), f"{doc} names no path: the pattern has drifted"
    missing = [
        path
        for path in named_paths(doc)
        if not (REPO / path).exists() and not (REPO / "src" / "repro" / path).exists()
    ]
    assert missing == []
