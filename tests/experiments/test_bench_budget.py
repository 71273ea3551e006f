"""Counted budgets for the per-packet path.

``scripts/bench_budget.py`` counts where one benchmark run's calls go.  At
the benchmark's ``--quick`` scale each of the five workloads runs in under a
second, so its row is pinned here: the speed-ups the benchmark measured
(``__slots__``, the wire memo, integer TCP keys and flags, the flood's hop,
the decode memo, events that build no handle, the guard's inline
forged-cookie drop, the TCP segment built and charged in one frame, the
BIND server's repeated question answered from a frozen prototype, a
re-head that shares its prototype's sections and wire, addresses carried
as ints and routed without a memo, a datagram that carries its message
with no wrapper and is sent from one frame) stay
held by counts, which repeat exactly, instead of by timings, which do not.
Every run also leaves nothing for the cyclic collector: what an exchange
owns dies by reference count when it ends.  The events still queued when
the run ends are a ceiling too, so a timer that outlives what it guards (a
closed connection's reap event) shows as a count.  A second pin keeps the
per-event classes free of a per-instance ``__dict__``.
"""

import json
import pathlib
import platform
import subprocess
import sys

import pytest

from repro.dns.framing import StreamFramer
from repro.dns.loadgen import _Interaction
from repro.dns.recursive import _Resolution
from repro.guard.core.ratelimit import (
    RateEstimator,
    TokenBucket,
    TopRequesterTracker,
    _TopEntry,
)
from repro.netsim.tcp import TcpConnection
from repro.netsim.udp import UdpSocket

SCRIPT = pathlib.Path(__file__).resolve().parents[2] / "scripts" / "bench_budget.py"

#: per workload at seed 0, ``--quick``: events, link packets, calls, frames in
#: the event kernel (``repro/netsim/simulator.py``), frames in the stdlib's
#: ipaddress.py, full Message parses, encodes, live events still queued at
#: the end.  ``tcp_proxy`` is the one whose calls a shared wire raised: a
#: frozen message keeps the bytes past its id and flags, so ``frame()``
#: packs those four bytes per framed message (a ``flags_word`` frame and a
#: ``struct.pack``) where it once returned a stored whole wire.  The
#: ipaddress.py ceilings are A-record rdata only (see ``RDATA_ONLY``): its
#: encode's ``.packed``, and one ``int()`` per A record built from an
#: ``IPv4Address``, never a frame per packet.  Every ``calls`` pin fell when
#: a UDP payload became the message or bytes itself (no ``DnsPayload`` /
#: ``RawPayload`` wrapper or its size property), ``UdpStack.send`` folded
#: into ``UdpSocket.send``, the per-packet ``Packet`` and ``Header`` calls
#: went positional, the flood's template senders passed their measured size
#: with each packet and a batch drew its spoofed sources in one call
BUDGETS = {
    "flood_modified": (7_082, 4_368, 137_661, 15_611, 3, 0, 2, 489),
    "flood_unguarded": (20_480, 10_681, 230_615, 41_376, 3, 0, 1, 302),
    "referral_miss": (4_957, 3_086, 153_320, 13_695, 5, 0, 5, 325),
    "tcp_proxy": (5_694, 2_881, 133_995, 19_320, 9, 4, 4, 277),
    "bind_mixed": (2_164, 1_072, 36_057, 4_629, 2, 0, 3, 186),
}

#: frames in this package's own files, exact under any interpreter like the
#: kernel's.  On the forged-cookie flood, the guards': the drop and the
#: per-query path enter no bookkeeping frame (the watched-source test, the
#: CPU charge, the decision note, the admission mark, the activation and
#: query-flag reads, both guards' cookie memo reads are inline or gated)
#: and a cookie is verified without building its stamped form.  On the TCP
#: exchange, the stack's: a segment is built and charged in one frame and
#: an ACK that empties the window enters no pump.  At the Fig 5 knee, the
#: BIND server's: a repeated question enters no zone lookup and rewrites no
#: TTL, so only the first ask of the run's one question does.  On the
#: unguarded flood and the referral exchange, the packet's: a UDP payload is
#: the message or bytes itself, ``Packet._size`` its one size memo (given by
#: the attacker's template, else measured in one ``Packet.size`` frame), so
#: a payload wrapper or a per-packet size frame that comes back shows as a
#: count there.  A frame that creeps back onto any of these paths shows as
#: a count
FILE_FRAMES = {
    "flood_modified": {
        "repro/guard/pipeline.py": 8_214,
        "repro/guard/local_guard.py": 2_961,
        "repro/guard/core/cookie.py": 3_807,
    },
    "flood_unguarded": {
        "repro/netsim/packet.py": 2_293,
    },
    "referral_miss": {
        "repro/netsim/packet.py": 3_427,
    },
    "tcp_proxy": {
        "repro/netsim/tcp.py": 21_457,
    },
    "bind_mixed": {
        "repro/dns/zone.py": 3,
        "dataclasses.py": 2,
    },
}

#: the kernel's frames are this package's own Python calls, so they repeat
#: exactly under any interpreter (no list comprehension runs in a pinned
#: file: 3.11 enters one as a frame, 3.12 inlines it): a frame or handle
#: that creeps back onto the path of an event nobody cancels shows as a count
KERNEL = "repro/netsim/simulator.py"

#: the interpreter the ``calls`` pins were counted under.  On it they are
#: exact: a quick run forwards a third of a packet per link packet, so one
#: extra frame per hop is well inside any slack, but it is one call per hop
PINNED_UNDER = ("CPython", "3.11.7")

#: the one file of this package that enters ``ipaddress.py`` on any
#: workload: addresses are ints inside the simulator, and an
#: ``IPv4Address`` is built or read only as A-record rdata
RDATA_ONLY = "repro/dnswire/rdata.py"

#: under any other interpreter, calls per link packet may drift this far
#: above the pin's (a release can move a builtin's call count); every other
#: count is exact or a ceiling
CALLS_SLACK = 1.02


def budget_row(workload: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--workload", workload, "--quick"],
        capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout)


@pytest.mark.parametrize("workload", sorted(BUDGETS))
def test_quick_budget(workload):
    events, link_pkts, calls, kernel_frames, ipaddress_frames, decodes, encodes, live = (
        BUDGETS[workload]
    )
    row = budget_row(workload)
    # the row describes the run it counted
    assert row["calls"] == sum(row["frames_by_file"].values())
    assert row["calls_per_link_packet"] == round(row["calls"] / row["link_pkts"], 2)
    top = [calls for _file, _function, calls in row["top_functions"]]
    assert len(top) == 25 and top == sorted(top, reverse=True)
    # the same simulation ...
    assert (row["events"], row["link_pkts"]) == (events, link_pkts)
    # ... for no more work per packet
    if (platform.python_implementation(), platform.python_version()) == PINNED_UNDER:
        assert row["calls"] == calls
    else:
        assert row["calls_per_link_packet"] <= round(calls / link_pkts, 2) * CALLS_SLACK
    assert row["frames_by_file"][KERNEL] == kernel_frames
    for file, frames in FILE_FRAMES.get(workload, {}).items():
        assert row["frames_by_file"][file] == frames, file
    assert row["frames_by_file"].get("ipaddress.py", 0) <= ipaddress_frames
    assert row["decodes"] <= decodes
    assert row["encodes"] <= encodes
    assert row["live_pending"] <= live
    assert row["enum_py_frames"] == 0
    # ... and nothing left behind in a reference cycle
    assert row["cyclic_garbage"] == 0
    # no address object anywhere else: not the attacker's spoofed sources,
    # the guards' keys, the route lookup, the SYN cookie nor the sockets
    callers = row["ipaddress_by_caller"]
    assert {caller for caller in callers if caller.startswith("repro/")} <= {RDATA_ONLY}


@pytest.mark.parametrize(
    "cls",
    [
        _Interaction,
        _Resolution,
        TcpConnection,
        UdpSocket,
        StreamFramer,
        TokenBucket,
        _TopEntry,
        TopRequesterTracker,
        RateEstimator,
    ],
    ids=lambda cls: cls.__name__,
)
def test_per_event_class_has_no_instance_dict(cls):
    """One instance per request, connection, segment stream or requester:
    ``__slots__`` all the way up the MRO keeps each allocation flat."""
    assert not hasattr(cls.__new__(cls), "__dict__")
