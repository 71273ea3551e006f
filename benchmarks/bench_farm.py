"""Scenario-farm bench: serial vs sharded execution of a smoke matrix.

The farm's contract is that sharding changes wall-clock only: the merged
results, per-cell trace hashes, and manifest digest of an N-shard run are
byte-identical to the serial run's.  This bench times both executions of
the smoke matrix (2 fault scenarios × 2 schemes, fast windows), asserts
the digests match, and records the speedup alongside the hybrid sweep.
"""

import pytest
from conftest import record

from repro.farm import run_farm


@pytest.fixture(scope="module")
def runs():
    serial = run_farm("smoke", seed=0, fast=True)
    sharded = run_farm("smoke", seed=0, fast=True, shards=2)
    return serial, sharded


def test_farm_sharding_equivalence(runs):
    serial, sharded = runs

    assert serial.complete and sharded.complete
    assert not serial.failed and not sharded.failed
    assert sharded.manifest.digest() == serial.manifest.digest()
    for cell in serial.cells:
        a = serial.manifest.records[cell.cell_id]
        b = sharded.manifest.records[cell.cell_id]
        assert a.result == b.result and a.trace_hash == b.trace_hash

    lines = [
        "Scenario farm: serial vs 2-shard smoke matrix "
        f"({len(serial.cells)} cells)",
        f"  serial : {serial.wall_seconds:>6.2f}s",
        f"  2-shard: {sharded.wall_seconds:>6.2f}s "
        f"(speedup {serial.wall_seconds / max(sharded.wall_seconds, 1e-9):.2f}x)",
        f"  manifest digest: {serial.manifest.digest()} (sharded run identical)",
        serial.rendered or "",
    ]
    record("farm", "\n".join(lines))


def test_hybrid_matrix_under_farm():
    """The hybrid fluid/packet sweep runs as farm cells: 10⁶ modeled
    clients per cell, each cell thousands (not millions) of events."""
    result = run_farm("hybrid", seed=0, fast=True)
    assert result.complete and not result.failed
    for row in result.reduced:
        assert row["clients"] == 1_000_000
        assert row["events"] < 20_000
    protected = {row["attack_rate"]: row for row in result.reduced if row["protection"]}
    unprotected = {
        row["attack_rate"]: row for row in result.reduced if not row["protection"]
    }
    # protection holds the bulk served rate through 100K attack; without
    # it the flood eats the ANS
    assert protected[100_000.0]["fluid_served_rate"] == pytest.approx(
        protected[0.0]["fluid_served_rate"], rel=0.05
    )
    assert (
        unprotected[100_000.0]["fluid_served_rate"]
        < unprotected[0.0]["fluid_served_rate"] * 0.25
    )
