"""R003/R004: the tie-group interference monitor, on toy simulations."""

from collections import OrderedDict

import pytest

from repro.analysis.races import InterferenceMonitor, run_monitored
from repro.analysis.declarations import parse_shared_state as parse_declaration
from repro.netsim import Simulator, set_tie_hook


class Store:
    """A toy handler target with one scalar and one dict of shared state."""

    def __init__(self):
        self.value = 0
        self.table = {}
        self.count = 0
        self.lru = OrderedDict()

    def set_value(self, n):
        self.value = n

    def read_value(self):
        return self.value

    def put(self, key, n):
        self.table[key] = n

    def get(self, key):
        return self.table.get(key)

    def scan(self):
        return list(self.table)

    def bump(self):
        self.count += 1

    def touch_lru(self, key):
        self.lru[key] = True
        self.lru.move_to_end(key)


class Cell:
    """A toy with one guarded scalar."""

    def __init__(self):
        self.value = 0

    def set(self, n):
        self.value = n

    def same(self, n):
        self.value = 0 * n  # writes, but every order converges to 0


DECLARED = parse_declaration(
    {
        "Store": {
            "guarded": ["value", "table", "lru"],
            "commutative": ["count"],
        },
        "Cell": {"guarded": ["value"]},
    }
)
CELL = [(Cell, DECLARED["Cell"])]


@pytest.fixture
def monitor():
    mon = InterferenceMonitor([(Store, DECLARED["Store"])])
    previous = set_tie_hook(mon)
    mon.install()
    yield mon
    mon.uninstall()
    set_tie_hook(previous)


def run_tie_group(monitor, *callbacks, spread=False):
    """Schedule the callbacks at one instant (or spread out) and run."""
    sim = Simulator()
    for i, (callback, args) in enumerate(callbacks):
        sim.schedule(2.0 + (i if spread else 0.0), callback, *args)
    sim.run()
    monitor.close_group()
    return monitor


class TestR003:
    def test_same_instant_scalar_ww_fires(self, monitor):
        store = Store()
        run_tie_group(
            monitor, (store.set_value, (1,)), (store.set_value, (2,))
        )
        assert [f.rule for f in monitor.findings] == ["R003"]
        assert "Store#0.value" in monitor.findings[0].message

    def test_spread_out_writes_do_not_fire(self, monitor):
        store = Store()
        run_tie_group(
            monitor, (store.set_value, (1,)), (store.set_value, (2,)), spread=True
        )
        assert monitor.findings == []

    def test_distinct_instances_do_not_alias(self, monitor):
        a, b = Store(), Store()
        run_tie_group(monitor, (a.set_value, (1,)), (b.set_value, (2,)))
        assert monitor.findings == []

    def test_dict_conflicts_are_key_granular(self, monitor):
        store = Store()
        run_tie_group(monitor, (store.put, ("x", 1)), (store.put, ("y", 2)))
        assert monitor.findings == []
        run_tie_group(monitor, (store.put, ("x", 1)), (store.put, ("x", 2)))
        assert [f.rule for f in monitor.findings] == ["R003"]
        assert "Store#0.table['x']" in monitor.findings[0].message

    def test_commutative_cells_exempt(self, monitor):
        store = Store()
        run_tie_group(monitor, (store.bump, ()), (store.bump, ()))
        assert monitor.findings == []

    def test_lru_reorder_is_a_whole_table_write(self, monitor):
        store = Store()
        run_tie_group(
            monitor, (store.touch_lru, ("x",)), (store.touch_lru, ("y",))
        )
        # different keys, but move_to_end mutates the shared eviction order
        assert [f.rule for f in monitor.findings] == ["R003"]
        assert "Store#0.lru[*]" in monitor.findings[0].message


class TestR004:
    def test_read_vs_write_fires(self, monitor):
        store = Store()
        run_tie_group(monitor, (store.read_value, ()), (store.set_value, (2,)))
        assert [f.rule for f in monitor.findings] == ["R004"]

    def test_iteration_vs_keyed_write_fires(self, monitor):
        store = Store()
        run_tie_group(monitor, (store.scan, ()), (store.put, ("x", 1)))
        assert [f.rule for f in monitor.findings] == ["R004"]
        assert "Store#0.table[*]" in monitor.findings[0].message

    def test_two_readers_do_not_fire(self, monitor):
        store = Store()
        run_tie_group(monitor, (store.read_value, ()), (store.read_value, ()))
        assert monitor.findings == []


class TestSerializationContract:
    def test_allow_marker_on_schedule_site_suppresses(self, monitor):
        store = Store()
        sim = Simulator()
        sim.schedule(1.0, store.set_value, 1)  # repro: allow[R003] send-order contract
        sim.schedule(1.0, store.set_value, 2)  # repro: allow[R003] send-order contract
        sim.run()
        monitor.close_group()
        assert monitor.findings == []

    def test_marker_for_other_rule_does_not_suppress(self, monitor):
        store = Store()
        sim = Simulator()
        sim.schedule(1.0, store.set_value, 1)  # repro: allow[R004] wrong rule
        sim.schedule(1.0, store.set_value, 2)  # repro: allow[R004] wrong rule
        sim.run()
        monitor.close_group()
        assert [f.rule for f in monitor.findings] == ["R003"]


class TestTrackedContainers:
    def test_tracking_preserves_dict_semantics(self, monitor):
        store = Store()
        run_tie_group(monitor, (store.put, ("x", 1)), (store.get, ("y",)))
        assert isinstance(store.table, dict)
        assert store.table == {"x": 1}
        assert store.table.trace_digest() == "dict"

    def test_ordered_dict_keeps_type_and_order(self, monitor):
        store = Store()
        run_tie_group(
            monitor, (store.touch_lru, ("x",)), (store.touch_lru, ("y",))
        )
        assert isinstance(store.lru, OrderedDict)
        assert list(store.lru) == ["x", "y"]


class TestRunMonitored:
    def test_toy_experiment_report(self):
        store = Store()

        def experiment():
            sim = Simulator()
            sim.schedule(1.0, store.set_value, 1)
            sim.schedule(1.0, store.set_value, 2)
            sim.schedule(2.0, store.bump)
            sim.run()

        report = run_monitored(
            experiment, declared=[(Store, DECLARED["Store"])]
        )
        assert not report.ok
        assert report.multi_groups == 1
        assert [f.rule for f in report.findings] == ["R003"]
        assert "CONFLICTS DETECTED" in report.summary()

    def test_clean_toy_experiment_is_ok(self):
        def experiment():
            store = Store()
            sim = Simulator()
            sim.schedule(1.0, store.set_value, 1)
            sim.schedule(2.0, store.set_value, 2)
            sim.run()

        report = run_monitored(
            experiment, declared=[(Store, DECLARED["Store"])]
        )
        assert report.ok
        assert "OK" in report.summary()

    def test_monitor_uninstalls_cleanly(self):
        report = run_monitored(
            lambda: None, declared=[(Store, DECLARED["Store"])]
        )
        assert report.ok
        # patched methods restored: plain attribute access, no recording
        store = Store()
        store.value = 7
        assert store.value == 7
        assert type(store.table) is dict


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


def self_scheduling(spawn=True):
    """A tie group's first member writes a cell and schedules a second write
    to it into its own instant and lane, behind the group's other member."""
    cell, other = Cell(), Cell()
    sim = Simulator()

    def first():
        cell.set(1)
        if spawn:
            sim.schedule(0.0, cell.set, 2)

    sim.schedule(1.0, first)
    sim.schedule(1.0, other.set, 3)
    sim.run()


class TestTieGroups:
    @pytest.mark.parametrize("toy", [order_dependent, order_convergent])
    def test_same_instant_writers_give_r003(self, toy):
        # converging or not, two same-instant writers of one cell conflict
        report = run_monitored(toy, declared=CELL)
        assert [f.rule for f in report.findings] == ["R003"]
        assert "Cell#0.value" in report.findings[0].message
        assert (report.groups_observed, report.multi_groups) == (3, 1)

    def test_an_event_scheduled_into_its_own_instant_opens_the_next_group(self):
        # the spawned write runs after the group that scheduled it, so it
        # cannot conflict with it: no finding, and one more group
        alone = run_monitored(lambda: self_scheduling(spawn=False), declared=CELL)
        assert alone.groups_observed == 1
        report = run_monitored(self_scheduling, declared=CELL)
        assert report.findings == []
        assert (report.groups_observed, report.multi_groups) == (2, 1)

    def test_the_last_group_is_judged_when_the_run_ends(self):
        def experiment():
            cell = Cell()
            sim = Simulator()
            sim.schedule(1.0, cell.set, 1)
            sim.schedule(1.0, cell.set, 2)
            sim.run()

        report = run_monitored(experiment, declared=CELL)
        assert [f.rule for f in report.findings] == ["R003"]
        assert (report.groups_observed, report.multi_groups) == (1, 1)

    def test_groups_never_span_simulators(self, monitor):
        store = Store()
        for _ in range(2):
            sim = Simulator()
            sim.schedule(1.0, store.set_value, 1)
            sim.run()
        monitor.close_group()
        # two simulators, one event each at the same (time, priority)
        assert (monitor.groups_observed, monitor.multi_groups, monitor.findings) == (2, 0, [])
