"""Event-dispatch micro-benchmark: events/s on the guarded flood workload.

This is the measurement behind ``scripts/BENCH_profile.json`` (see ``python -m
repro obs --bench-profile``): the P-rule first-wave fixes — ``__slots__``
on per-event classes, interned names, memoized wire encodings, the
AnsSimulator response/size caches and the route/address lookups — land
here as raw simulator throughput.
"""

import pytest
from conftest import record

from repro.experiments.demo import run_profiled_flood

#: Loose floor: the seed measured ~45K ev/s and the first fix wave ~58K on
#: the reference container; anything under this means dispatch regressed
#: catastrophically, not that the host is merely slow.
MIN_EVENTS_PER_SECOND = 10_000


@pytest.fixture(scope="module")
def profiler():
    return run_profiled_flood(seed=11, duration=0.5).profiler


def test_dispatch_throughput(profiler):
    lines = [
        f"events handled     {profiler.events}",
        f"events / second    {profiler.events_per_second():,.0f}",
        f"max heap depth     {profiler.max_heap_depth}",
        "",
        "top handlers by wall time:",
    ]
    for key, stats in profiler.top_handlers(8):
        lines.append(f"  {key:<58} {stats.calls:>7} {stats.seconds:>8.4f}s")
    record("dispatch", "\n".join(lines))

    assert profiler.events > 0
    assert profiler.events_per_second() > MIN_EVENTS_PER_SECOND

    # the satellite-3 profiler fix: tap wrappers must be attributed to the
    # wrapped transmit, never to the tracer's closure qualname
    assert not any(".<locals>." in key for key in profiler.handlers)
    assert any(key.endswith("Link.transmit") for key in profiler.handlers)
