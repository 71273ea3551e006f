"""The runtime analysis modes of ``python -m repro <cmd>``, and their shared run.

``--sanitize``, ``--races`` and ``--explore N`` each replace a command's
normal output with a verdict: run the experiment under some observer,
then print a report.  :func:`run_mode` holds the table the CLI dispatches
from — every mode returns a report with ``summary()`` and ``ok`` — and
:func:`run_hooked` is the one "install a tie hook, run quietly, restore"
step the interference monitor and the schedule explorer share.
"""

from __future__ import annotations

import contextlib
import io
from typing import Any, Callable

from ..netsim.simulator import set_tie_hook


def quiet_stdout(quiet: bool):
    """Context manager swallowing stdout when ``quiet``, so a mode's verdict
    is the only output."""
    return contextlib.redirect_stdout(io.StringIO()) if quiet else contextlib.nullcontext()


def run_hooked(
    experiment: Callable[[], Any], hook, *, quiet: bool = True, monitor=None
) -> None:
    """Execute ``experiment`` once with ``hook`` as the simulator tie hook.

    ``monitor`` — the hook itself, or the monitor a wrapping hook forwards
    to — has its class instrumentation installed for exactly the duration
    of the run.  The previous hook is restored even when the experiment
    raises.
    """
    previous = set_tie_hook(hook)
    if monitor is not None:
        monitor.install()
    try:
        with quiet_stdout(quiet):
            experiment()
    finally:
        if monitor is not None:
            monitor.uninstall()
        set_tie_hook(previous)


def run_mode(name: str, invoke: Callable[[], Any], args) -> Any:
    """Run ``invoke`` under the ``--<name>`` mode; returns its report.

    The monitors are imported here: they import :func:`run_hooked` from
    this module.
    """
    from .races.explore import explore
    from .races.runtime import run_monitored
    from .sanitizer import run_sanitized

    table = {
        "sanitize": lambda: run_sanitized(invoke),
        "races": lambda: run_monitored(invoke),
        "explore": lambda: explore(invoke, permutations=args.explore, seed=args.seed),
    }
    return table[name]()
