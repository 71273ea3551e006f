"""The runtime analysis modes of ``python -m repro <cmd>``.

``--sanitize`` and ``--races`` each replace a command's normal output
with a verdict: run the experiment under some observer, then print a
report.  :func:`run_mode` holds the table the CLI dispatches from — every
mode returns a report with ``summary()`` and ``ok``.
"""

from __future__ import annotations

import contextlib
import io
from typing import Any, Callable


def quiet_stdout(quiet: bool):
    """Context manager swallowing stdout when ``quiet``, so a mode's verdict
    is the only output."""
    return contextlib.redirect_stdout(io.StringIO()) if quiet else contextlib.nullcontext()


def run_mode(name: str, invoke: Callable[[], Any]) -> Any:
    """Run ``invoke`` under the ``--<name>`` mode; returns its report.

    The monitors are imported here: they import :func:`quiet_stdout` from
    this module.
    """
    from .races.runtime import run_monitored
    from .sanitizer import run_sanitized

    table = {
        "sanitize": lambda: run_sanitized(invoke),
        "races": lambda: run_monitored(invoke),
    }
    return table[name]()
