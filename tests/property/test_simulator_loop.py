"""Differential properties of the event loop: one ``step``, however driven.

``Simulator.step`` executes every event the same way; a tie hook only
brackets each one, and ``run`` is ``step(until)`` in a loop.  Random
programs — schedules on a few colliding times in both lanes, cancellations
from inside a tie group and from outside between ``step()`` calls,
same-instant reschedules into either lane, a burst of more than 64 cancellations in one callback (which
compacts, i.e. rebinds, the heap mid-group and mid-``run``) and
``step(until)`` / ``run(until=)`` / ``run(max_events=)`` cuts — must observe
the same thing with no hook and with a no-op hook, and the same thing
whether stepped by hand, run to the end or run in pieces.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

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
        st.tuples(st.just("step_until"), delays),
        st.tuples(st.just("run_until"), delays),
        st.tuples(st.just("run_max"), st.integers(min_value=0, max_value=3)),
        st.tuples(st.just("run_until_max"), delays, st.integers(min_value=0, max_value=3)),
    ),
    max_size=12,
)


class _WatchingHook:
    """A no-op tie hook that checks every event is bracketed exactly once."""

    def __init__(self):
        self.running = None
        self.bracketed = 0

    def before_event(self, sim, event):
        assert self.running is None, "an event started inside another"
        assert event.time == sim.now
        self.running = event

    def after_event(self, sim, event):
        assert event is self.running
        self.running = None
        self.bracketed += 1


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
            self.sim.schedule(delay, self._fire, index, action, priority=lane)
        )

    def _cancel(self, target):
        self.handles[target % len(self.handles)].cancel()

    def _fire(self, index, action):
        sim = self.sim
        self.seen.append(("fired", index, sim.now, sim.live_pending_events))
        if action[0] == "cancel":
            self._cancel(action[1])
        elif action[0] == "cancel_burst":
            burst = [
                sim.schedule(100.0, self._fire, -1, ("noop",))
                for _ in range(action[1])
            ]
            for handle in burst:
                handle.cancel()
        elif action[0] == "spawn":
            _, delay, lane, then = action
            self._schedule(delay, lane, then)

    def drive(self, ops):
        sim = self.sim
        for op in ops:
            if op[0] == "step":
                sim.step()
            elif op[0] == "cancel":
                self._cancel(op[1])
            elif op[0] == "step_until":
                sim.step(sim.now + op[1])
            elif op[0] == "run_until":
                sim.run(until=sim.now + op[1])
            elif op[0] == "run_max":
                sim.run(max_events=op[1])
            else:
                sim.run(until=sim.now + op[1], max_events=op[2])
            self.seen.append((op[0], sim.now, sim.events_processed, sim.live_pending_events))
        sim.run()
        self.seen.append(("drained", sim.now, sim.events_processed, sim.live_pending_events))
        return self.seen, sim.trace.hexdigest()


#: A same-instant spawn into an earlier lane runs next, ahead of the rest
#: of the tie group that spawned it — hook or no hook.
EARLIER_LANE = [
    (0.0, DEFAULT_PRIORITY, ("spawn", 0.0, BOUNDARY_PRIORITY, ("noop",))),
    (0.0, DEFAULT_PRIORITY, ("noop",)),
]


@settings(max_examples=300, deadline=None)
@given(schedule=schedules, ops=driver_ops)
@example(schedule=EARLIER_LANE, ops=[])
def test_watching_hook_never_changes_the_run(schedule, ops):
    plain = _Program(schedule).drive(ops)
    hook = _WatchingHook()
    previous = set_tie_hook(hook)
    try:
        program = _Program(schedule)
        hooked = program.drive(ops)
    finally:
        set_tie_hook(previous)
    assert hooked == plain
    assert (hook.running, hook.bracketed) == (None, program.sim.events_processed)


# -- ``run`` is ``step`` in a loop ------------------------------------------

#: Absolute cut times, half-way between and exactly on the event times.
cut_times = st.lists(
    st.sampled_from((0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0)), max_size=6
).map(sorted)
budgets = st.lists(st.integers(min_value=0, max_value=4), max_size=8)

#: 70 cancellations in one callback: the heap is compacted (rebound) mid-run.
BURST = [
    (0.5, DEFAULT_PRIORITY, ("cancel_burst", 70)),
    (0.5, DEFAULT_PRIORITY, ("noop",)),
    (1.0, BOUNDARY_PRIORITY, ("spawn", 0.5, DEFAULT_PRIORITY, ("noop",))),
]


def _outcome(program):
    """What a drained program observed: every firing, and the trace."""
    sim = program.sim
    assert sim.live_pending_events == 0
    fired = [entry for entry in program.seen if entry[0] == "fired"]
    return fired, sim.events_processed, sim.trace.hexdigest()


def _run_in_pieces(schedule, cuts, budget_list, fire_times):
    """Drive fresh copies of one program four ways; each must fire what
    ``while sim.step(): pass`` fired (at ``fire_times``), and every cut must
    leave ``now`` and ``events_processed`` where the fire times say."""
    outcomes = []

    program = _Program(schedule)
    program.sim.run()
    outcomes.append(_outcome(program))

    program = _Program(schedule)
    sim = program.sim
    for cut in cuts:
        sim.run(until=cut)
        assert sim.now == cut
        assert sim.events_processed == sum(1 for t in fire_times if t <= cut)
    sim.run()
    outcomes.append(_outcome(program))

    program = _Program(schedule)
    sim = program.sim
    done = 0
    for budget in budget_list:
        sim.run(max_events=budget)
        done = min(len(fire_times), done + budget)
        assert sim.events_processed == done
        assert sim.now == (fire_times[done - 1] if done else 0.0)
    sim.run()
    outcomes.append(_outcome(program))

    # both limits at once: ``now`` reaches ``until`` exactly when no due
    # event is left pending, whether or not the budget also ran out
    program = _Program(schedule)
    sim = program.sim
    done = 0
    for cut, budget in zip(cuts, budget_list):
        before = sim.now
        sim.run(until=cut, max_events=budget)
        due = sum(1 for t in fire_times if t <= cut)
        fired_now = min(due - done, budget)
        done += fired_now
        assert sim.events_processed == done
        if done == due:
            assert sim.now == cut
        else:
            assert sim.now == (fire_times[done - 1] if fired_now else before)
    sim.run()
    outcomes.append(_outcome(program))
    return outcomes


@settings(max_examples=200, deadline=None)
@given(schedule=schedules, cuts=cut_times, budget_list=budgets)
@example(schedule=BURST, cuts=[0.5, 0.75], budget_list=[1, 1, 1])  # _compact() mid-run
@example(schedule=BURST, cuts=[0.25, 1.0, 1.5], budget_list=[0, 2, 0])  # budget out, due pending
def test_run_is_step_in_a_loop(schedule, cuts, budget_list):
    program = _Program(schedule)
    while program.sim.step():
        pass
    stepped = _outcome(program)
    fire_times = [entry[2] for entry in stepped[0]]
    assert fire_times == sorted(fire_times)

    assert _run_in_pieces(schedule, cuts, budget_list, fire_times) == [stepped] * 4
    hook = _WatchingHook()
    previous = set_tie_hook(hook)
    try:
        assert _run_in_pieces(schedule, cuts, budget_list, fire_times) == [stepped] * 4
    finally:
        set_tie_hook(previous)
    assert (hook.running, hook.bracketed) == (None, 4 * len(fire_times))


@pytest.fixture(params=["plain", "hooked"])
def any_sim(request):
    """A fresh simulator, with and without a watching tie hook installed."""
    previous = set_tie_hook(_WatchingHook() if request.param == "hooked" else None)
    try:
        yield Simulator()
    finally:
        set_tie_hook(previous)


def test_step_until_refuses_a_later_event_without_popping_it(any_sim):
    sim = any_sim
    fired = []
    sim.schedule(1.0, fired.append, "late")
    assert sim.step(0.5) is False
    assert (sim.now, sim.events_processed, sim.live_pending_events) == (0.0, 0, 1)
    assert sim.step(1.0) is True
    assert (fired, sim.now, sim.live_pending_events) == (["late"], 1.0, 0)
    assert sim.step() is False


def test_cancelled_head_at_an_until_boundary(any_sim):
    sim = any_sim
    fired = []
    head = sim.schedule(1.0, fired.append, "cancelled")
    sim.schedule(2.0, fired.append, "live")
    head.cancel()
    sim.run(until=1.0)
    assert (fired, sim.now, sim.events_processed, sim.live_pending_events) == ([], 1.0, 0, 1)
    assert sim.step(1.0) is False  # the tombstone is not a due event
    assert sim.step() is True
    assert (fired, sim.now) == (["live"], 2.0)


def test_max_events_running_out_with_and_without_a_due_event_pending(any_sim):
    sim = any_sim
    fired = []
    for at in (1.0, 2.0, 3.0):
        sim.schedule(at, fired.append, at)
    sim.run(until=5.0, max_events=2)
    assert (fired, sim.now) == ([1.0, 2.0], 2.0)  # 3.0 is due: now stays put
    sim.run(until=5.0, max_events=0)
    assert (fired, sim.now) == ([1.0, 2.0], 2.0)
    sim.run(until=5.0, max_events=1)
    assert (fired, sim.now) == ([1.0, 2.0, 3.0], 5.0)  # nothing due is left
    sim.schedule(1.0, fired.append, 6.0)
    sim.run(until=5.5, max_events=0)
    assert (fired, sim.now) == ([1.0, 2.0, 3.0], 5.5)  # the next one is not due
