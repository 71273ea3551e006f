"""Table II bench: request latency per scheme over the 10.9 ms WAN path."""

import pytest
from conftest import record

from repro.experiments.calibration import WAN_RTT
from repro.experiments.table2 import format_table2, run_table2


@pytest.fixture(scope="module")
def rows():
    return run_table2()


def test_table2(rows):
    record("table2", format_table2(rows))
    by_scheme = {row.scheme: row for row in rows}
    rtt_ms = WAN_RTT * 1000

    # cache-miss RTT multiples: 2x / 3x / 3x / 2x
    assert by_scheme["ns_name"].miss_ms == pytest.approx(2 * rtt_ms, rel=0.15)
    assert by_scheme["fabricated"].miss_ms == pytest.approx(3 * rtt_ms, rel=0.15)
    assert by_scheme["tcp"].miss_ms == pytest.approx(3 * rtt_ms, rel=0.15)
    assert by_scheme["modified"].miss_ms == pytest.approx(2 * rtt_ms, rel=0.15)

    # cache hits take one RTT for the UDP schemes, three for TCP
    for scheme in ("ns_name", "fabricated", "modified"):
        assert by_scheme[scheme].hit_ms == pytest.approx(rtt_ms, rel=0.15)
    assert by_scheme["tcp"].hit_ms == pytest.approx(3 * rtt_ms, rel=0.15)


def test_table2_matches_paper_within_tolerance(rows):
    for row in rows:
        assert row.miss_ms == pytest.approx(row.paper_miss_ms, rel=0.15)
        assert row.hit_ms == pytest.approx(row.paper_hit_ms, rel=0.15)
