"""Virtual-time race detection for the discrete-event simulator.

Two cooperating layers over the simultaneity contract documented in
DESIGN.md ("Simultaneity semantics"):

* :mod:`.effects` — static effect inference over scheduled callbacks
  (rules R001/R002), driven by ``__shared_state__`` declarations
  (:mod:`repro.analysis.declarations`);
* :mod:`.runtime` — the dynamic interference sanitizer observing real
  tie groups through :func:`repro.netsim.set_tie_hook` (R003/R004).
"""

from .runtime import InterferenceMonitor, RaceReport, run_monitored

__all__ = [
    "InterferenceMonitor",
    "RaceReport",
    "run_monitored",
]
