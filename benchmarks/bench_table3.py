"""Table III bench: guard throughput per scheme, cache miss vs hit."""

import pytest
from conftest import record

from repro.experiments.table3 import format_table3, run_table3


@pytest.fixture(scope="module")
def rows():
    return run_table3(fast=True)


def test_table3(rows):
    record("table3", format_table3(rows))
    by_scheme = {row.scheme: row for row in rows}

    # cache hits for the UDP schemes are capped by the ANS simulator (~110K)
    for scheme in ("ns_name", "fabricated", "modified"):
        assert by_scheme[scheme].hit_krps == pytest.approx(110.0, rel=0.1)

    # ordering on cache misses: ns_name ~ modified > fabricated > tcp
    assert by_scheme["ns_name"].miss_krps == pytest.approx(
        by_scheme["modified"].miss_krps, rel=0.15
    )
    assert by_scheme["ns_name"].miss_krps > by_scheme["fabricated"].miss_krps * 1.15
    assert by_scheme["fabricated"].miss_krps > by_scheme["tcp"].miss_krps * 2

    # TCP is flat at ~22.7K regardless of caching
    assert by_scheme["tcp"].miss_krps == pytest.approx(22.7, rel=0.15)
    assert by_scheme["tcp"].hit_krps == pytest.approx(22.7, rel=0.15)


def test_table3_matches_paper_within_tolerance(rows):
    """Within 20% of the paper's absolute numbers across the board."""
    for row in rows:
        assert row.miss_krps == pytest.approx(row.paper_miss_krps, rel=0.2)
        assert row.hit_krps == pytest.approx(row.paper_hit_krps, rel=0.2)
