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


DECLARED = parse_declaration(
    {
        "Store": {
            "guarded": ["value", "table", "lru"],
            "commutative": ["count"],
        }
    }
)


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
    return monitor


class TestR003:
    def test_same_instant_scalar_ww_fires(self, monitor):
        store = Store()
        run_tie_group(
            monitor, (store.set_value, (1,)), (store.set_value, (2,))
        )
        assert [f.rule for f in monitor.findings] == ["R003"]
        assert "Store#0.value" in monitor.findings[0].message
        assert monitor.conflict_groups

    def test_spread_out_writes_do_not_fire(self, monitor):
        store = Store()
        run_tie_group(
            monitor, (store.set_value, (1,)), (store.set_value, (2,)), spread=True
        )
        assert monitor.findings == []
        assert not monitor.conflict_groups

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
        assert monitor.findings == []
        # suppressed conflicts are not exploration targets either
        assert not monitor.conflict_groups

    def test_marker_for_other_rule_does_not_suppress(self, monitor):
        store = Store()
        sim = Simulator()
        sim.schedule(1.0, store.set_value, 1)  # repro: allow[R004] wrong rule
        sim.schedule(1.0, store.set_value, 2)  # repro: allow[R004] wrong rule
        sim.run()
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
