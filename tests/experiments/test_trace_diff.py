"""``scripts/trace_diff.py`` aligns two event streams: what it reports is
exactly the events one side has and the other lacks, by callback."""

import importlib.util
import pathlib

SCRIPT = pathlib.Path(__file__).resolve().parents[2] / "scripts" / "trace_diff.py"
spec = importlib.util.spec_from_file_location("trace_diff", SCRIPT)
trace_diff = importlib.util.module_from_spec(spec)
spec.loader.exec_module(trace_diff)

STREAM = [
    "t=0.0 LoadGenerator._tick<lrs>()",
    "t=0.001 Link._deliver<l1>(Packet,Node<guard>)",
    "t=0.001 TcpProxy._arm_reaper.<locals>.reap()",
    "t=0.002 Cpu._complete<guard>()",
    "t=0.003 partial:Link._deliver<l2>(Packet,Node<ans>)",
    "t=0.004 Stub._on_timeout.<locals>.<lambda>(1)",
]


def test_qualname_drops_the_owner_but_not_a_nested_scope():
    assert [trace_diff.qualname(line) for line in STREAM] == [
        "LoadGenerator._tick",
        "Link._deliver",
        "TcpProxy._arm_reaper.<locals>.reap",
        "Cpu._complete",
        "Link._deliver",
        "Stub._on_timeout.<locals>.<lambda>",
    ]


def test_identical_streams_report_nothing(capsys):
    only_parent, only_change, windows, events = trace_diff.compare([(STREAM, list(STREAM))])
    assert (only_parent, only_change, windows, events) == ({}, {}, [], [6, 6])
    assert trace_diff.report("table2", (1, 1), [(STREAM, list(STREAM))]) == 0
    assert capsys.readouterr().out == "trace-diff table2: identical, 1 simulator(s), 6 events\n"


def test_one_removed_event_is_that_event_and_the_rest_aligns():
    change = STREAM[:2] + STREAM[3:]
    only_parent, only_change, windows, events = trace_diff.compare([(STREAM, change)])
    assert only_parent == {"TcpProxy._arm_reaper.<locals>.reap": 1}
    assert only_change == {}
    assert [window[:5] for window in windows] == [(0, 2, 3, 2, 2)]
    assert windows[0][5] == ["  - " + STREAM[2]]
    assert events == [6, 5]


def test_one_moved_event_is_one_event_only_in_each_side():
    moved = "t=0.0025 TcpProxy._arm_reaper.<locals>.reap()"
    change = STREAM[:2] + STREAM[3:4] + [moved] + STREAM[4:]
    only_parent, only_change, windows, _ = trace_diff.compare([(STREAM, change)])
    assert only_parent == only_change == {"TcpProxy._arm_reaper.<locals>.reap": 1}
    assert [window[:5] for window in windows] == [(0, 2, 3, 2, 2), (0, 4, 4, 3, 4)]


def test_a_simulator_one_side_lacks_is_all_differences(capsys):
    pairs = [(STREAM, list(STREAM)), ([], STREAM[:1])]
    assert trace_diff.report("faults", (1, 2), pairs) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[:5] == [
        "trace-diff faults: 1 → 2 simulator(s), 6 → 7 events",
        "only in the parent: 0",
        "only in the change: 1",
        "         1  LoadGenerator._tick",
        "simulator #1: parent events [0, 0), change events [0, 1)",
    ]
