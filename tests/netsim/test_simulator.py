"""Unit tests for the discrete-event core."""

import pytest

from repro.netsim import Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, fired.append, "late")
        sim.schedule(1.0, fired.append, "early")
        sim.run()
        assert fired == ["early", "late"]
        assert sim.now == 2.0

    def test_same_time_fifo_order(self):
        sim = Simulator()
        fired = []
        for i in range(5):
            sim.schedule(1.0, fired.append, i)
        sim.run()
        assert fired == [0, 1, 2, 3, 4]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(0.5, lambda: None)

    def test_cancellation(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, fired.append, "x")
        handle.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        sim.run()

    def test_nested_scheduling(self):
        sim = Simulator()
        fired = []

        def outer():
            fired.append(("outer", sim.now))
            sim.schedule(0.5, inner)

        def inner():
            fired.append(("inner", sim.now))

        sim.schedule(1.0, outer)
        sim.run()
        assert fired == [("outer", 1.0), ("inner", 1.5)]


class TestRunControl:
    def test_run_until_stops_and_advances_clock(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(3.0, fired.append, "b")
        sim.run(until=2.0)
        assert fired == ["a"]
        assert sim.now == 2.0
        sim.run()
        assert fired == ["a", "b"]

    def test_run_until_advances_clock_when_queue_empty(self):
        sim = Simulator()
        sim.run(until=5.0)
        assert sim.now == 5.0

    def test_max_events(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule(float(i + 1), fired.append, i)
        sim.run(max_events=3)
        assert fired == [0, 1, 2]

    def test_step_returns_false_when_empty(self):
        assert Simulator().step() is False

    def test_events_processed_counter(self):
        sim = Simulator()
        for i in range(4):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_processed == 4

    def test_run_until_not_overshot_by_cancelled_tombstones(self):
        """Cancelled events at the queue head must not let run(until=...)
        execute a live event beyond the deadline (regression test)."""
        sim = Simulator()
        fired = []
        early = sim.schedule(0.5, fired.append, "cancelled")
        early.cancel()
        sim.schedule(10.0, fired.append, "late")
        sim.run(until=1.0)
        assert fired == []
        assert sim.now == 1.0
        sim.run()
        assert fired == ["late"]


class TestNonFiniteTimes:
    def test_schedule_at_nan_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError, match="non-finite"):
            sim.schedule_at(float("nan"), lambda: None)

    def test_schedule_at_inf_rejected(self):
        sim = Simulator()
        for bad in (float("inf"), float("-inf")):
            with pytest.raises(ValueError):
                sim.schedule_at(bad, lambda: None)

    def test_schedule_nan_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(float("nan"), lambda: None)

    def test_schedule_inf_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError, match="non-finite"):
            sim.schedule(float("inf"), lambda: None)


class TestDeterminism:
    def test_same_seed_same_randoms(self):
        a, b = Simulator(seed=42), Simulator(seed=42)
        assert [a.rng.random() for _ in range(10)] == [b.rng.random() for _ in range(10)]

    def test_different_seed_different_randoms(self):
        a, b = Simulator(seed=1), Simulator(seed=2)
        assert [a.rng.random() for _ in range(5)] != [b.rng.random() for _ in range(5)]


class TestEventTrace:
    @staticmethod
    def _run(seed, delays):
        sim = Simulator(seed=seed, trace_hash=True)
        for delay in delays:
            sim.schedule(delay, lambda: None)
        sim.run()
        return sim

    def test_trace_disabled_by_default(self):
        assert Simulator().trace is None

    def test_identical_runs_identical_digests(self):
        a = self._run(0, [0.1, 0.2, 0.3])
        b = self._run(0, [0.1, 0.2, 0.3])
        assert a.trace.hexdigest() == b.trace.hexdigest()
        assert a.trace.count == 3

    def test_different_schedules_different_digests(self):
        a = self._run(0, [0.1, 0.2, 0.3])
        b = self._run(0, [0.1, 0.2, 0.4])
        assert a.trace.hexdigest() != b.trace.hexdigest()

    def test_cancelled_events_do_not_enter_trace(self):
        sim = Simulator(trace_hash=True)
        sim.schedule(0.1, lambda: None)
        sim.schedule(0.2, lambda: None).cancel()
        sim.run()
        assert sim.trace.count == 1


class _SpyHook:
    """Minimal tie hook: records groups, optionally reorders them."""

    def __init__(self, reorder=None):
        self.groups = []
        self.brackets = []
        self.reorder = reorder

    def register(self, sim):
        pass

    def on_group(self, sim, events):
        self.groups.append(list(events))
        if self.reorder is not None:
            return self.reorder(events)
        return None

    def before_event(self, sim, event):
        self.brackets.append(("before", event.seq))

    def after_event(self, sim, event):
        self.brackets.append(("after", event.seq))

    def end_group(self, sim):
        self.brackets.append(("end", None))


@pytest.fixture
def spy_hook():
    from repro.netsim import set_tie_hook

    hook = _SpyHook()
    previous = set_tie_hook(hook)
    yield hook
    set_tie_hook(previous)


class TestTieBreakContract:
    """The FIFO tie-break is load-bearing: the race rules reason about
    tie groups, so insertion order at equal (time, priority) is a pinned
    contract, not an implementation accident."""

    def test_interleaved_times_keep_per_instant_fifo(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, fired.append, "b0")
        sim.schedule(1.0, fired.append, "a0")
        sim.schedule(2.0, fired.append, "b1")
        sim.schedule(1.0, fired.append, "a1")
        sim.run()
        assert fired == ["a0", "a1", "b0", "b1"]

    def test_boundary_lane_runs_before_default_lane(self):
        from repro.netsim import BOUNDARY_PRIORITY

        sim = Simulator()
        fired = []
        # scheduled *after* the default-lane event, still runs first
        sim.schedule(1.0, fired.append, "delivery")
        sim.schedule(1.0, fired.append, "fault", priority=BOUNDARY_PRIORITY)
        sim.run()
        assert fired == ["fault", "delivery"]

    @pytest.mark.parametrize("hooked", [False, True], ids=["hook-off", "hook-on"])
    def test_cancellation_inside_tie_group(self, hooked, request):
        if hooked:
            request.getfixturevalue("spy_hook")
        sim = Simulator()
        fired = []
        handles = {}
        sim.schedule(1.0, lambda: (fired.append("a"), handles["b"].cancel()))
        handles["b"] = sim.schedule(1.0, lambda: fired.append("b"))
        sim.run()
        assert fired == ["a"]

    def test_max_events_counts_only_live_events(self):
        sim = Simulator()
        fired = []
        for i in range(6):
            handle = sim.schedule(float(i + 1), fired.append, i)
            if i % 2 == 0:
                handle.cancel()
        sim.run(max_events=2)
        assert fired == [1, 3]


class TestTieHook:
    def test_groups_batch_equal_time_and_priority(self, spy_hook):
        from repro.netsim import BOUNDARY_PRIORITY

        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(1.0, lambda: None)
        sim.schedule(1.0, lambda: None, priority=BOUNDARY_PRIORITY)
        sim.schedule(2.0, lambda: None)
        sim.run()
        shapes = [
            (group[0].time, group[0].priority, len(group))
            for group in spy_hook.groups
        ]
        assert shapes == [(1.0, BOUNDARY_PRIORITY, 1), (1.0, 0, 2), (2.0, 0, 1)]

    def test_hook_brackets_every_event_and_closes_group(self, spy_hook):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(1.0, lambda: None)
        sim.run()
        kinds = [kind for kind, _ in spy_hook.brackets]
        assert kinds == ["before", "after", "before", "after", "end"]

    def test_hook_reordering_changes_execution_order(self):
        from repro.netsim import set_tie_hook

        hook = _SpyHook(reorder=lambda events: list(reversed(events)))
        previous = set_tie_hook(hook)
        try:
            sim = Simulator()
            fired = []
            for i in range(3):
                sim.schedule(1.0, fired.append, i)
            sim.run()
        finally:
            set_tie_hook(previous)
        assert fired == [2, 1, 0]

    def test_grouped_and_fast_paths_execute_identically(self, spy_hook):
        def build(sim, fired):
            for i in range(4):
                sim.schedule(1.0, fired.append, i)
            sim.schedule(2.0, fired.append, "late")

        grouped_sim, grouped = Simulator(), []
        build(grouped_sim, grouped)
        grouped_sim.run()

        from repro.netsim import set_tie_hook

        hook = set_tie_hook(None)  # temporarily unhooked
        try:
            plain_sim, plain = Simulator(), []
            build(plain_sim, plain)
            plain_sim.run()
        finally:
            set_tie_hook(hook)
        assert grouped == plain


class TestHeapHygiene:
    def test_live_pending_events_excludes_tombstones(self):
        sim = Simulator()
        keep = [sim.schedule(1.0, lambda: None) for _ in range(3)]
        drop = [sim.schedule(2.0, lambda: None) for _ in range(2)]
        for handle in drop:
            handle.cancel()
        assert sim.pending_events == 5
        assert sim.live_pending_events == 3
        assert keep  # silence unused warning

    def test_compaction_purges_dominating_tombstones(self):
        from repro.netsim.simulator import _COMPACT_MIN_TOMBSTONES

        sim = Simulator()
        total = 3 * _COMPACT_MIN_TOMBSTONES
        handles = [sim.schedule(1.0, lambda: None) for _ in range(total)]
        survivors = set(handles[::3])
        for handle in handles:
            if handle not in survivors:
                handle.cancel()
        # tombstones (2/3 of the heap) crossed both thresholds: at least one
        # compaction ran, and the residual tombstone debt stays bounded
        assert sim.live_pending_events == len(survivors)
        assert sim.pending_events < total
        debt = sim.pending_events - sim.live_pending_events
        assert (
            debt <= _COMPACT_MIN_TOMBSTONES or debt * 2 <= sim.pending_events
        )

    def test_compaction_below_threshold_is_deferred(self):
        from repro.netsim.simulator import _COMPACT_MIN_TOMBSTONES

        sim = Simulator()
        live = [
            sim.schedule(1.0, lambda: None)
            for _ in range(3 * _COMPACT_MIN_TOMBSTONES)
        ]
        sim.schedule(1.0, lambda: None).cancel()
        assert sim.pending_events == len(live) + 1  # tombstone still queued
        assert sim.live_pending_events == len(live)

    def test_compacted_run_fires_survivors_in_order(self):
        from repro.netsim.simulator import _COMPACT_MIN_TOMBSTONES

        sim = Simulator()
        fired = []
        total = 3 * _COMPACT_MIN_TOMBSTONES
        handles = [sim.schedule(1.0, fired.append, i) for i in range(total)]
        for i, handle in enumerate(handles):
            if i % 3:
                handle.cancel()
        sim.run()
        assert fired == [i for i in range(total) if i % 3 == 0]
