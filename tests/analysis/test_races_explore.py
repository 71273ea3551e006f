"""Schedule exploration: seeded tie-group permutations vs canonical traces."""

from repro.analysis.races import explore
from repro.analysis.declarations import parse_shared_state as parse_declaration
from repro.netsim import Simulator

DECLARED = parse_declaration({"Cell": {"guarded": ["value"]}})


class Cell:
    def __init__(self):
        self.value = 0

    def set(self, n):
        self.value = n

    def same(self, n):
        self.value = 0 * n  # writes, but every order converges to 0


def declared():
    return [(Cell, DECLARED["Cell"])]


def order_dependent():
    """Last writer wins, and the winner steers a later event's timestamp."""
    cell = Cell()
    sim = Simulator()
    sim.schedule(1.0, cell.set, 1)
    sim.schedule(1.0, cell.set, 2)
    sim.schedule(2.0, lambda: sim.schedule(0.5 * cell.value, lambda: None))
    sim.run()


def order_convergent():
    """A real W/W conflict whose every interleaving ends in the same state."""
    cell = Cell()
    sim = Simulator()
    sim.schedule(1.0, cell.same, 1)
    sim.schedule(1.0, cell.same, 2)
    sim.schedule(2.0, lambda: sim.schedule(0.5 + cell.value, lambda: None))
    sim.run()


def conflict_free():
    a, b = Cell(), Cell()
    sim = Simulator()
    sim.schedule(1.0, a.set, 1)
    sim.schedule(1.0, b.set, 2)
    sim.run()


class TestExplore:
    def test_conflicting_group_divergence_is_detected(self):
        report = explore(order_dependent, permutations=8, declared=declared())
        assert report.target_groups == 1
        assert report.permuted_total > 0
        assert not report.invariant
        assert report.divergences, "some permutation must swap the writers"
        assert "ORDER-DEPENDENT" in report.summary()
        # localised: the divergence names a simulator and tie group
        _, divergence = report.divergences[0]
        assert divergence.sim_index == 0

    def test_convergent_conflict_is_invariant(self):
        report = explore(order_convergent, permutations=8, declared=declared())
        assert report.target_groups == 1
        assert report.permuted_total > 0
        assert report.invariant
        assert "INVARIANT" in report.summary()

    def test_no_conflicts_means_nothing_to_permute(self):
        report = explore(conflict_free, permutations=8, declared=declared())
        assert report.target_groups == 0
        assert report.permuted_total == 0
        assert report.invariant
        assert "no conflicting tie group(s)" in report.summary()

    def test_same_seed_reproduces_the_divergences(self):
        first = explore(order_dependent, permutations=6, seed=3, declared=declared())
        second = explore(order_dependent, permutations=6, seed=3, declared=declared())
        assert [i for i, _ in first.divergences] == [
            i for i, _ in second.divergences
        ]
        assert first.base_digest == second.base_digest
