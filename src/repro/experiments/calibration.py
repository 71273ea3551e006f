"""Calibration constants tying the CPU model to the paper's testbed (§IV.A).

The paper's hardware:

* DNS guards: DELL 600SC, P4 2.4 GHz — the guard costs live in
  :class:`repro.guard.GuardCosts` (see that module for the derivations);
* ANS / LRSs: DELL 400SC, P4 2.26 GHz running BIND 9.3.1 or the simulators;
* LAN RTT between LRS and ANS: 0.4 ms; the WAN latency experiment used a
  cable-modem path with RTT 10.9 ms.

Measured capacities reproduced here:

=====================  ===========  ==========================
quantity               paper        model constant
=====================  ===========  ==========================
BIND UDP capacity      14K req/s    ``BIND_UDP_COST`` = 1/14000
BIND TCP capacity      2.2K req/s   ``BIND_TCP_COST`` = 1/2200
ANS simulator          110K req/s   ``ANS_SIMULATOR_COST`` = 1/110000
LRS BIND retry timer   2 s          ``BIND_TIMEOUT``
LRS simulator wait     10 ms        ``LRS_SIMULATOR_TIMEOUT``
root-server peak load  5K req/s     ``ROOT_SERVER_PEAK_RATE`` [22]
=====================  ===========  ==========================

:func:`run_calibration` measures the first three by saturating each
substrate with the guard disabled: they are the anchors every other
experiment leans on.
"""

from __future__ import annotations

import functools

from ..dns import (
    ANS_SIMULATOR_COST,
    BIND_TCP_COST,
    BIND_TIMEOUT,
    BIND_UDP_COST,
    LRS_SIMULATOR_TIMEOUT,
    LrsSimulator,
    TcpLoadClient,
)
from ..guard import GuardCosts
from . import expectations

#: The guard sits directly in front of the ANS, so that hop is negligible;
#: the client <-> guard link carries essentially the whole 0.4 ms LAN RTT.
ANS_LINK_DELAY = 0.00001
LAN_LINK_DELAY = 0.00019

#: One-way client-side delay for the WAN latency experiment (Table II):
#: 10.9 ms RTT = 2 x (5.44 ms WAN + 0.01 ms guard-ANS hop).
WAN_LINK_DELAY = 0.00544

#: The paper's measured WAN RTT for Table II.
WAN_RTT = 0.0109

#: Peak request rate observed at a root server (paper ref [22], CAIDA).
ROOT_SERVER_PEAK_RATE = 5000.0

#: Figure 5's spoof-detection activation threshold (the ANS's capacity).
FIG5_ACTIVATION_THRESHOLD = 14000.0

DEFAULT_GUARD_COSTS = GuardCosts()


def _saturate(seed, ans_kind, load, concurrency, duration, warmup, **bed_options) -> float:
    from .testbed import ANS_ADDRESS, GuardTestbed  # testbed imports this module

    bed = GuardTestbed(seed=seed, ans=ans_kind, zone_origin="foo.com.", answer_ttl=3600,
                       guard_enabled=False, **bed_options)
    generator = load(bed.add_client("lrs"), ANS_ADDRESS, concurrency=concurrency)
    generator.start()
    (rate,) = bed.measure([generator.stats], duration, warmup=warmup)
    generator.stop()
    return rate


def run_calibration(seed: int = 0) -> dict[str, float]:
    """Saturated requests/sec of BIND over UDP and TCP and of the ANS simulator."""
    udp = functools.partial(LrsSimulator, workload="plain")
    return {
        "bind_udp": _saturate(seed, "bind", udp, 128, 0.3, 0.2),
        "bind_tcp": _saturate(seed, "bind", TcpLoadClient, 16, 0.5, 0.3, cookie_subnet=None),
        "ans_simulator": _saturate(seed, "simulator", udp, 128, 0.3, 0.2),
    }


def cells(rates: dict[str, float]) -> dict[str, float]:
    return dict(rates)


def format_calibration(rates: dict[str, float]) -> str:
    lines = ["Calibration anchors: saturated capacity, guard disabled (K requests/sec)"]
    for label, cell in (
        ("BIND UDP", "bind_udp"), ("BIND TCP", "bind_tcp"), ("ANS simulator", "ans_simulator")
    ):
        lines.append(
            f"  {label:<14} measured {rates[cell] / 1000:>6.2f}   "
            f"paper {expectations.paper('calibration', cell) / 1000:>6.2f}"
        )
    return "\n".join(lines)


__all__ = [
    "ANS_LINK_DELAY",
    "ANS_SIMULATOR_COST",
    "BIND_TCP_COST",
    "BIND_TIMEOUT",
    "BIND_UDP_COST",
    "DEFAULT_GUARD_COSTS",
    "FIG5_ACTIVATION_THRESHOLD",
    "LAN_LINK_DELAY",
    "LRS_SIMULATOR_TIMEOUT",
    "ROOT_SERVER_PEAK_RATE",
    "WAN_LINK_DELAY",
    "WAN_RTT",
    "format_calibration",
    "run_calibration",
]
