"""Differential property: a tie hook that only watches never changes a run.

``Simulator.step`` executes every event the same way; a tie hook only
changes where the *next* event comes from (a popped tie group instead of
the heap).  Random programs — schedules on a few colliding times in both
lanes, cancellations from inside a tie group and from outside between
``step()`` calls, same-instant reschedules, a burst of more than 64
cancellations in one callback (which compacts, i.e. rebinds, the heap
mid-group) and ``run(until=)`` / ``run(max_events=)`` cuts — must observe
the same thing with no hook and with a no-op hook.
"""

from hypothesis import given, settings, strategies as st

from repro.netsim import BOUNDARY_PRIORITY, DEFAULT_PRIORITY, Simulator, set_tie_hook

#: Exact in binary, so sums of them collide into tie groups.
delays = st.sampled_from((0.0, 0.5, 1.0))
lanes = st.sampled_from((DEFAULT_PRIORITY, BOUNDARY_PRIORITY))
#: An event by creation index (modulo however many exist when it is used).
targets = st.integers(min_value=0, max_value=63)

leaf_actions = st.one_of(
    st.just(("noop",)),
    st.tuples(st.just("cancel"), targets),
    st.tuples(st.just("cancel_burst"), st.integers(min_value=65, max_value=80)),
)
actions = st.one_of(
    leaf_actions, st.tuples(st.just("spawn"), delays, lanes, leaf_actions)
)
schedules = st.lists(st.tuples(delays, lanes, actions), min_size=1, max_size=12)
driver_ops = st.lists(
    st.one_of(
        st.just(("step",)),
        st.tuples(st.just("cancel"), targets),
        st.tuples(st.just("run_until"), delays),
        st.tuples(st.just("run_max"), st.integers(min_value=0, max_value=3)),
    ),
    max_size=12,
)


class _WatchingHook:
    """A no-op tie hook that checks ``end_group`` closes every group once."""

    def __init__(self):
        self.opened = 0
        self.closed = 0

    def register(self, sim):
        pass

    def on_group(self, sim, events):
        assert events
        assert self.closed == self.opened, "a group opened before the last one ended"
        self.opened += 1
        return None

    def before_event(self, sim, event):
        pass

    def after_event(self, sim, event):
        pass

    def end_group(self, sim):
        self.closed += 1
        assert self.closed == self.opened, "end_group fired twice for one group"


class _Program:
    """Interprets one generated program against a fresh simulator."""

    def __init__(self, schedule):
        self.sim = Simulator(trace_hash=True)
        self.handles = []
        #: what each fired event saw, then what the driver saw after each op
        self.seen = []
        for delay, lane, action in schedule:
            self._schedule(delay, lane, action)

    def _schedule(self, delay, lane, action):
        index = len(self.handles)
        self.handles.append(
            self.sim.schedule(delay, self._fire, index, lane, action, priority=lane)
        )

    def _cancel(self, target):
        self.handles[target % len(self.handles)].cancel()

    def _fire(self, index, own_lane, action):
        sim = self.sim
        self.seen.append(("fired", index, sim.now, sim.live_pending_events))
        if action[0] == "cancel":
            self._cancel(action[1])
        elif action[0] == "cancel_burst":
            burst = [
                sim.schedule(100.0, self._fire, -1, DEFAULT_PRIORITY, ("noop",))
                for _ in range(action[1])
            ]
            for handle in burst:
                handle.cancel()
        elif action[0] == "spawn":
            _, delay, lane, then = action
            if delay == 0.0:
                # Scheduling into an *earlier* lane of the running instant is
                # the one order a hook changes: the hooked loop has already
                # popped the rest of the current group.  Nothing in the tree
                # does it, so the property keeps to the running lane or later.
                lane = max(lane, own_lane)
            self._schedule(delay, lane, then)

    def drive(self, ops):
        sim = self.sim
        for op in ops:
            if op[0] == "step":
                sim.step()
            elif op[0] == "cancel":
                self._cancel(op[1])
            elif op[0] == "run_until":
                sim.run(until=sim.now + op[1])
            else:
                sim.run(max_events=op[1])
            self.seen.append((op[0], sim.now, sim.events_processed, sim.live_pending_events))
        sim.run()
        self.seen.append(("drained", sim.now, sim.events_processed, sim.live_pending_events))
        return self.seen, sim.trace.hexdigest()


@settings(max_examples=300, deadline=None)
@given(schedule=schedules, ops=driver_ops)
def test_watching_hook_never_changes_the_run(schedule, ops):
    plain = _Program(schedule).drive(ops)
    hook = _WatchingHook()
    previous = set_tie_hook(hook)
    try:
        hooked = _Program(schedule).drive(ops)
    finally:
        set_tie_hook(previous)
    assert hooked == plain
    assert hook.opened == hook.closed
