"""Unit tests for the discrete-event core."""

import sys
import weakref

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
    """Minimal tie hook: records the brackets around each event."""

    def __init__(self):
        self.brackets = []

    def before_event(self, sim, event):
        self.brackets.append(("before", event.time, event.priority, event.seq))

    def after_event(self, sim, event):
        self.brackets.append(("after", event.seq))


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

    def test_unorderable_callbacks_keep_fifo(self):
        """Heap order is (time, priority, seq) and seq is unique, so two
        same-instant callbacks (or their args) are never compared."""

        class Unordered:
            def __init__(self, tag, log):
                self.tag, self.log = tag, log

            def __call__(self, *args):
                self.log.append(self.tag)

        sim = Simulator()
        fired = []
        for tag in "abcd":
            sim.schedule_at(1.0, Unordered(tag, fired), object())
            sim.schedule(1.0, Unordered(tag.upper(), fired), object())
        with pytest.raises(TypeError):
            Unordered("x", fired) < Unordered("y", fired)
        sim.run()
        assert fired == ["a", "A", "b", "B", "c", "C", "d", "D"]

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
        fired = []
        sim.schedule(1.0, fired.append, 0)
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(1.0, fired.append, 2, priority=BOUNDARY_PRIORITY)
        sim.schedule(2.0, fired.append, 3)
        sim.run()
        assert fired == [2, 0, 1, 3]
        # a tie group reaches the hook as one unbroken run of its members
        shapes = []
        for record in spy_hook.brackets:
            if record[0] != "before":
                continue
            key = record[1:3]
            if shapes and shapes[-1][:2] == key:
                shapes[-1] = (*key, shapes[-1][2] + 1)
            else:
                shapes.append((*key, 1))
        assert shapes == [(1.0, BOUNDARY_PRIORITY, 1), (1.0, 0, 2), (2.0, 0, 1)]

    def test_hook_brackets_every_event_and_closes_group(self, spy_hook):
        from repro.netsim import BOUNDARY_PRIORITY

        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(1.0, lambda: None)
        sim.schedule(1.0, lambda: None, priority=BOUNDARY_PRIORITY)
        sim.schedule(2.0, lambda: None)
        sim.run()
        # each event's after closes it before the next one opens, so a
        # group ends with its last member's after
        assert spy_hook.brackets == [
            ("before", 1.0, BOUNDARY_PRIORITY, 2), ("after", 2),
            ("before", 1.0, 0, 0), ("after", 0),
            ("before", 1.0, 0, 1), ("after", 1),
            ("before", 2.0, 0, 3), ("after", 3),
        ]

    def test_event_carries_its_callback_and_scheduling_site(self):
        from repro.netsim import set_tie_hook

        seen = []

        class Hook:
            def before_event(self, sim, event):
                seen.append((event.callback, event.args, event.site, sim._last_seq))

            def after_event(self, sim, event):
                pass

        previous = set_tie_hook(Hook())
        try:
            sim, fired = Simulator(), []
            line = sys._getframe().f_lineno + 1
            sim.schedule(1.0, fired.append, "x")
            sim.schedule(1.0, fired.append, "y").cancel()
            sim.run()
        finally:
            set_tie_hook(previous)
        assert seen == [(fired.append, ("x",), (__file__, line), 1)]
        assert sim._sites == {}  # the tombstone's site went with it

    def test_hooked_and_plain_runs_execute_identically(self, spy_hook):
        def build(sim, fired):
            for i in range(4):
                sim.schedule(1.0, fired.append, i)
            sim.schedule(2.0, fired.append, "late")

        hooked_sim, hooked = Simulator(), []
        build(hooked_sim, hooked)
        hooked_sim.run()

        from repro.netsim import set_tie_hook

        hook = set_tie_hook(None)  # temporarily unhooked
        try:
            plain_sim, plain = Simulator(), []
            build(plain_sim, plain)
            plain_sim.run()
        finally:
            set_tie_hook(hook)
        assert hooked == plain


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

    def test_cancelled_event_releases_callback_and_arguments(self):
        """The tombstone stays queued until popped or compacted, but what it
        would have run is let go at ``cancel``."""

        class Exchange:
            def expire(self, other):
                pass

        sim = Simulator()
        owner, argument = Exchange(), Exchange()
        owner_ref, argument_ref = weakref.ref(owner), weakref.ref(argument)
        handle = sim.schedule(1.0, owner.expire, argument)
        del owner, argument
        assert owner_ref() is not None and argument_ref() is not None
        handle.cancel()
        assert owner_ref() is None and argument_ref() is None
        assert sim.pending_events == 1 and sim.live_pending_events == 0
        sim.run()
        assert sim.pending_events == 0 and sim.events_processed == 0

    def test_fired_timer_handle_owns_nothing(self):
        """A handle kept past its event (a connection's last retransmit
        timer, say) holds neither the callback nor its arguments."""

        class Exchange:
            def expire(self, other):
                pass

        sim = Simulator()
        owner, argument = Exchange(), Exchange()
        owner_ref, argument_ref = weakref.ref(owner), weakref.ref(argument)
        handle = sim.schedule(1.0, owner.expire, argument)
        del owner, argument
        sim.run()
        assert sim.events_processed == 1
        assert owner_ref() is None and argument_ref() is None
        assert handle.time == 1.0

    def test_cancel_after_fire_changes_no_count(self):
        sim = Simulator()
        fired = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run(until=1.5)
        assert (sim.pending_events, sim.live_pending_events) == (1, 1)
        fired.cancel()
        assert (sim.pending_events, sim.live_pending_events) == (1, 1)
        assert fired.time == 1.0
        sim.run()
        assert sim.events_processed == 2

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


class TestTracedRulerContract:
    """``python -m bench --trace 1`` reads the event kernel by code object:
    ``max_heap_depth`` is sampled on each entry of ``Simulator.step``, and
    ``cancelled_share`` is entries of ``EventHandle.cancel`` over entries of
    ``Simulator.schedule_at``.  Those readings mean what they say only
    while each fired event enters ``step`` once, each scheduled event
    (timers included) enters ``schedule_at`` once, and each cancel enters
    ``cancel`` once."""

    def test_counted_code_objects_enter_once_per_event(self):
        from repro.netsim import EventHandle

        sim = Simulator()
        fired = []

        def chain(hops):
            fired.append(hops)
            if hops:
                sim.schedule_at(sim.now + 0.5, chain, hops - 1)

        def simulate():
            timers = [sim.schedule(1.0 + i, fired.append, i) for i in range(6)]
            for i in range(4):
                sim.schedule_at(0.25 * i, chain, 2)
            sim.schedule(0.1, timers[1].cancel)
            for timer in timers[::2]:
                timer.cancel()
            while sim.live_pending_events:
                sim.step()

        entries = {}

        def profile(frame, event, arg):
            if event == "call":
                entries[frame.f_code] = entries.get(frame.f_code, 0) + 1

        sys.setprofile(profile)
        try:
            simulate()
        finally:
            sys.setprofile(None)
        # 6 timers, 4 chains of 3 hops, 1 cancelling event; 4 timers cancelled
        assert sim.events_processed == 6 + 12 + 1 - 4
        assert entries[Simulator.step.__code__] == sim.events_processed
        assert entries[Simulator.schedule_at.__code__] == 6 + 12 + 1
        assert entries[EventHandle.cancel.__code__] == 4
