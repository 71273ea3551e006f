"""Virtual-time race detection for the discrete-event simulator.

Three cooperating layers over the simultaneity contract documented in
DESIGN.md ("Simultaneity semantics"):

* :mod:`.effects` — static effect inference over scheduled callbacks
  (rules R001/R002), driven by ``__shared_state__`` declarations
  (:mod:`repro.analysis.declarations`);
* :mod:`.runtime` — the dynamic interference sanitizer observing real
  tie groups through :func:`repro.netsim.set_tie_hook` (R003/R004);
* :mod:`.explore` — DPOR-lite schedule exploration asserting canonical
  trace invariance under permutations of conflicting tie groups.
"""

from .explore import ExploreReport, explore
from .runtime import InterferenceMonitor, RaceReport, run_monitored

__all__ = [
    "ExploreReport",
    "InterferenceMonitor",
    "RaceReport",
    "explore",
    "run_monitored",
]
