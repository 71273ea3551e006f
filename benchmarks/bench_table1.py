"""Table I bench: the scheme-comparison table, measured rather than asserted."""

import pytest
from conftest import record

from repro.experiments.table1 import format_table1, measure_cookie_storage, run_table1


@pytest.fixture(scope="module")
def rows():
    return run_table1()


@pytest.fixture(scope="module")
def storage():
    return measure_cookie_storage(10)


def test_table1(rows, storage):
    record("table1", format_table1(rows, storage=storage))
    by_scheme = {row.scheme: row for row in rows}

    # worst/best latency in RTTs (paper's first two rows)
    assert by_scheme["ns_name"].worst_latency_rtt == pytest.approx(2.0, rel=0.15)
    assert by_scheme["fabricated"].worst_latency_rtt == pytest.approx(3.0, rel=0.15)
    assert by_scheme["tcp"].worst_latency_rtt == pytest.approx(3.0, rel=0.15)
    assert by_scheme["modified"].worst_latency_rtt == pytest.approx(2.0, rel=0.15)
    for scheme in ("ns_name", "fabricated", "modified"):
        assert by_scheme[scheme].best_latency_rtt == pytest.approx(1.0, rel=0.15)
    assert by_scheme["tcp"].best_latency_rtt == pytest.approx(3.0, rel=0.15)

    # cookie ranges: 2^32 for labels, 2^128 for the modified scheme
    assert by_scheme["ns_name"].cookie_range_bits == 32
    assert by_scheme["modified"].cookie_range_bits == 128

    # traffic amplification: bounded for DNS-based, zero for the others
    assert 0 < by_scheme["ns_name"].amplification_bytes <= 40
    assert by_scheme["tcp"].amplification_bytes == 0
    assert by_scheme["modified"].amplification_bytes == 0

    # deployment transparency
    assert by_scheme["ns_name"].deployment == "ANS side only"
    assert by_scheme["modified"].deployment == "LRS side and ANS side"


def test_table1_cookie_storage_row(storage):
    """"1 cookie per NS record" vs "2 cookies per non-referral record"."""
    ns_entries, fab_entries = storage
    # NS-name: constant per zone, regardless of how many names resolved
    assert ns_entries == 2  # the com delegation's cookie NS + its A
    # fabricated: two entries (cookie NS + COOKIE2 A) for each of 10 names
    assert fab_entries == 20
