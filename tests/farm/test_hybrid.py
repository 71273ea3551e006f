"""Hybrid fluid/packet mode: cross-validation against both references.

The fidelity contract (DESIGN.md "Sharding & determinism model"): on the
calibration scenario — 20K req/s bulk legitimate fluid + 60K req/s
spoofed flood, protection on — the hybrid run's guard/ANS CPU and served
rate stay within stated tolerance of (a) the FluidModel closed forms and
(b) a pure packet-level run of the same scenario.  Tolerances: ±0.05
absolute CPU utilisation against the closed forms (the fluids discretise
at DEFAULT_TICK), ±0.08 against the packet run (the packet path adds
per-packet queueing the fluid integrates away), ±5% relative on served
rate, ±0.05 absolute on foreground availability.
"""

import pytest

from repro.attack import SpoofingAttacker
from repro.dns import LrsSimulator
from repro.experiments.fluid import FluidModel
from repro.experiments.testbed import ANS_ADDRESS, GuardTestbed
from repro.farm.hybrid import PER_CLIENT_RATE, HybridPoint, run_hybrid_point

LEGIT_RATE = 20_000.0
ATTACK_RATE = 60_000.0


@pytest.fixture(scope="module")
def model():
    return FluidModel()


@pytest.fixture(scope="module")
def hybrid(model):
    return run_hybrid_point(
        ATTACK_RATE,
        True,
        seed=0,
        legit_rate=LEGIT_RATE,
        warmup=0.1,
        duration=0.25,
        model=model,
    )


def _packet_reference(seed=0, warmup=0.1, duration=0.25):
    """The same calibration scenario, every client packet-level."""
    bed = GuardTestbed(seed=seed, ans="simulator", ans_mode="answer")
    bulk_node = bed.add_client("bulk", via_local_guard=True)
    bulk = LrsSimulator(
        bulk_node,
        ANS_ADDRESS,
        workload="plain",
        concurrency=64,
        target_rate=LEGIT_RATE,
    )
    fg_node = bed.add_client("fg", via_local_guard=True)
    foreground = LrsSimulator(
        fg_node, ANS_ADDRESS, workload="plain", concurrency=8, target_rate=500.0
    )
    attacker = SpoofingAttacker(
        bed.add_client("attacker"), ANS_ADDRESS, rate=ATTACK_RATE,
        carry_invalid_cookie=True,
    )
    bulk.start()
    foreground.start()
    attacker.start()
    bed.run(warmup)
    bulk.stats.begin_window(bed.sim.now)
    foreground.stats.begin_window(bed.sim.now)
    guard_busy0 = bed.guard_node.cpu.completed_busy_seconds()
    t0 = bed.sim.now
    bed.run(duration)
    stats = foreground.stats
    return {
        "bulk_rate": bulk.stats.throughput(bed.sim.now),
        "guard_cpu": bed.guard_node.cpu.utilization(guard_busy0, t0),
        "fg_availability": (
            stats.completed / (stats.completed + stats.timeouts)
            if stats.completed + stats.timeouts
            else 0.0
        ),
        "events": bed.sim.events_processed,
    }


class TestAgainstClosedForms:
    def test_guard_cpu(self, hybrid, model):
        expected = model.hybrid_guard_cpu(LEGIT_RATE, ATTACK_RATE, protection=True)
        assert hybrid.guard_cpu == pytest.approx(expected, abs=0.05)

    def test_ans_cpu(self, hybrid, model):
        expected = model.hybrid_ans_cpu(
            hybrid.fluid_served_rate, ATTACK_RATE, protection=True
        )
        assert hybrid.ans_cpu == pytest.approx(expected, abs=0.05)

    def test_served_rate(self, hybrid, model):
        expected = model.hybrid_served_rate(LEGIT_RATE, ATTACK_RATE, protection=True)
        assert hybrid.fluid_served_rate == pytest.approx(expected, rel=0.05)
        assert hybrid.fluid_availability == pytest.approx(1.0, abs=0.02)

    def test_unprotected_flood_starves_bulk(self, model):
        """Protection off at 100K attack: the flood eats the ANS and the
        closed form predicts the leftover capacity the fluid measures."""
        point = run_hybrid_point(
            100_000.0,
            False,
            seed=0,
            legit_rate=LEGIT_RATE,
            warmup=0.1,
            duration=0.25,
            model=model,
        )
        expected = model.hybrid_served_rate(LEGIT_RATE, 100_000.0, protection=False)
        assert point.fluid_served_rate == pytest.approx(expected, rel=0.08)
        assert point.fluid_served_rate < LEGIT_RATE * 0.75


class TestAgainstPacketRun:
    def test_guard_cpu_and_availability(self, hybrid):
        packet = _packet_reference()
        assert hybrid.guard_cpu == pytest.approx(packet["guard_cpu"], abs=0.08)
        assert hybrid.foreground_availability == pytest.approx(
            packet["fg_availability"], abs=0.05
        )
        # the whole point: the fluid models the bulk load at a tiny
        # fraction of the packet run's event count
        assert hybrid.events < packet["events"] / 3


class TestScale:
    def test_million_client_cell_is_cheap(self):
        """≥10⁶ modeled stub clients in a few thousand events — the cell
        finishes orders of magnitude under the 300 s per-cell timeout."""
        point = run_hybrid_point(
            250_000.0, True, seed=0, clients=1_000_000, warmup=0.1, duration=0.2
        )
        assert isinstance(point, HybridPoint)
        assert point.clients == 1_000_000
        assert point.fluid_offered_rate == pytest.approx(
            1_000_000 * PER_CLIENT_RATE
        )
        assert point.events < 20_000
        assert 0.0 < point.fluid_served_rate <= point.fluid_offered_rate

    def test_deterministic(self):
        a = run_hybrid_point(60_000.0, True, seed=0, warmup=0.1, duration=0.2)
        b = run_hybrid_point(60_000.0, True, seed=0, warmup=0.1, duration=0.2)
        assert a == b


class TestFarmMatrix:
    def test_hybrid_matrix_under_farm(self):
        """The hybrid fluid/packet sweep runs as farm cells: 10⁶ modeled
        clients per cell, each cell thousands (not millions) of events."""
        from repro.farm import run_farm

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
