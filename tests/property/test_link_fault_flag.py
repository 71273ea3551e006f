"""One flag stands for every fault knob a link has.

``Link.transmit`` tests ``_impaired`` instead of each knob, so the flag must
equal "some knob is set" after every way a knob changes: a direct
assignment (what the ``repro.faults`` actions do), ``clear_faults()``, and a
``FaultPlan`` applying and reverting its actions on the simulator clock.  A
flag left false under a live knob would skip the fault without a trace.
"""

from hypothesis import given, settings, strategies as st

from repro.faults import (
    BurstyLoss,
    Corrupt,
    Duplicate,
    FaultPlan,
    GilbertElliottLoss,
    LinkDown,
    LinkFlap,
    Reorder,
)
from repro.netsim import Link, Node, Simulator

#: the knobs that are off at 0
LEVELS = ("loss", "jitter", "duplicate_prob", "reorder_prob", "corrupt_prob")


def some_knob_set(link: Link) -> bool:
    return (
        not link.up
        or link.loss_model is not None
        or any(getattr(link, knob) for knob in LEVELS)
    )


levels = st.sampled_from((0.0, 0.0, 1e-4, 0.5, 1.0))
times = st.sampled_from((0.0, 0.01, 0.02, 0.05, 0.1))
durations = st.one_of(st.none(), st.sampled_from((0.01, 0.05, 0.2)))
assignments = st.one_of(
    st.tuples(st.just("up"), st.booleans()),
    st.tuples(st.just("loss_model"), st.booleans()),  # True installs a model
    st.tuples(st.sampled_from(LEVELS + ("reorder_delay",)), levels),
    st.just(("clear_faults", None)),
)
#: each a function of the link, so one plan is built per example
actions = st.one_of(
    st.builds(lambda d: lambda link: LinkDown(link, duration=d), durations),
    st.builds(
        lambda n: lambda link: LinkFlap(link, down_for=0.02, up_for=0.03, count=n),
        st.integers(min_value=1, max_value=3),
    ),
    st.builds(lambda d: lambda link: BurstyLoss(link, duration=d), durations),
    st.builds(
        lambda kind, p, d: lambda link: kind(link, p, duration=d),
        st.sampled_from((Duplicate, Reorder, Corrupt)),
        levels,
        durations,
    ),
)


def assign(link: Link, knob: str, value) -> None:
    if knob == "clear_faults":
        link.clear_faults()
    elif knob == "loss_model":
        link.loss_model = GilbertElliottLoss(link.sim.rng) if value else None
    else:
        setattr(link, knob, value)


@settings(max_examples=200, deadline=None)
@given(
    loss=levels,
    jitter=st.sampled_from((0.0, 0.0005)),
    direct=st.lists(st.tuples(times, assignments), max_size=8),
    planned=st.lists(st.tuples(times, actions), max_size=6),
)
def test_the_flag_is_some_knob_set_after_every_event(loss, jitter, direct, planned):
    sim = Simulator(seed=1)
    link = Link(sim, Node(sim, "a"), Node(sim, "b"), delay=0.001, loss=loss, jitter=jitter)
    assert link._impaired == some_knob_set(link)
    plan = FaultPlan()
    for at, build in planned:
        plan.add(at, build(link))
    plan.schedule(sim)
    for at, (knob, value) in direct:
        sim.schedule_at(at, assign, link, knob, value)
    while sim.step():
        assert link._impaired == some_knob_set(link)
    link.clear_faults()
    link.up = True
    # what clear_faults leaves alone: the link's own loss and jitter
    assert link._impaired == bool(link.loss or link.jitter)
