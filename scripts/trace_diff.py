"""A behaviour change as a diff of two event streams, not as two hashes.

``make trace-diff PARENT=<checkout> CMD="table2 --seed 7"`` runs ``python -m
repro <CMD>`` (``--sanitize`` dropped) in both checkouts, each against its own
``src/``, and has every simulator's ``EventTrace`` write its event descriptions
to a file without the sequence number, which one added or removed ``schedule``
call shifts for every later event.  Each simulator's two streams are aligned:
identical streams print one line and exit 0; otherwise the events only in each
side are counted by callback qualname, the first differing windows shown, exit 1.
"""

import collections
import contextlib
import difflib
import itertools
import os
import pathlib
import subprocess
import sys
import tempfile

#: differing windows shown, and lines shown of each side of one
WINDOWS = 3
SHOWN = 4


class _Lines:
    """An ``EventTrace.descriptions`` that writes each description appended
    to a file, its ``#sequence`` cut out."""

    def __init__(self, path: str):
        self.file = open(path, "w", encoding="utf-8", errors="backslashreplace")

    def append(self, description: str) -> None:
        time, _sequence, event = description.split(" ", 2)
        self.file.write(f"{time} {event}\n")


class _Collector:
    """Traces simulator ``i`` into the file ``<out>/<i>``."""

    keep_events, event_limit = True, None

    def __init__(self, out: str):
        self.out, self.sinks = out, []

    def register(self, sim) -> None:
        self.sinks.append(_Lines(os.path.join(self.out, f"{len(self.sinks):05d}")))
        sim.trace.descriptions = self.sinks[-1]


def record(out: str, argv: list[str]) -> None:
    """Run ``python -m repro <argv>`` in this process, stdout discarded."""
    from repro.__main__ import main
    from repro.netsim.simulator import set_trace_collector

    collector = _Collector(out)
    set_trace_collector(collector)
    try:
        with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
            main([arg for arg in argv if arg != "--sanitize"])
    finally:
        for sink in collector.sinks:
            sink.file.close()


def streams(checkout: str, argv: list[str], out: str) -> list[str]:
    """Run ``argv`` in ``checkout``: the file of each simulator's events."""
    os.makedirs(out)
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(checkout), "src"))
    command = [sys.executable, os.path.abspath(__file__), "--record", out, *argv]
    subprocess.run(command, cwd=checkout, env=env, check=True)
    return [os.path.join(out, name) for name in sorted(os.listdir(out))]


def read(path: str | None) -> list[str]:
    """One simulator's event lines; none for a simulator one side lacks."""
    return pathlib.Path(path).read_text(encoding="utf-8").splitlines() if path else []


def qualname(line: str) -> str:
    """The callback qualname of an event line, without its ``<owner>``."""
    label = line.split(" ", 1)[1].split("(", 1)[0].removeprefix("partial:")
    head, _, _owner = label.rpartition("<")
    return head if label.endswith(">") and head and not head.endswith(".") else label


def compare(pairs):
    """Align each simulator's ``(parent, change)`` streams, one pair at a
    time: the events only in the parent and only in the change counted by
    qualname, the first :data:`WINDOWS` differing windows as ``(simulator,
    i1, i2, j1, j2, lines)``, and each side's event total."""
    only_parent, only_change = collections.Counter(), collections.Counter()
    windows, events = [], [0, 0]
    for index, (a, b) in enumerate(pairs):
        events[0] += len(a)
        events[1] += len(b)
        matcher = difflib.SequenceMatcher(None, a, b, autojunk=False)
        for tag, i1, i2, j1, j2 in matcher.get_opcodes():
            if tag == "equal":
                continue
            only_parent.update(qualname(line) for line in a[i1:i2])
            only_change.update(qualname(line) for line in b[j1:j2])
            if len(windows) < WINDOWS:
                sides = (("-", a[i1:i2]), ("+", b[j1:j2]))
                lines = [f"  {mark} {line}" for mark, side in sides for line in side[:SHOWN]]
                windows.append((index, i1, i2, j1, j2, lines))
    return only_parent, only_change, windows, events


def report(command: str, simulators: tuple[int, int], pairs) -> int:
    """Print the verdict of :func:`compare`; 0 when the streams are equal."""
    only_parent, only_change, windows, events = compare(pairs)
    if not windows:
        print(f"trace-diff {command}: identical, {simulators[0]} simulator(s), {events[0]} events")
        return 0
    print(f"trace-diff {command}: {simulators[0]} → {simulators[1]} simulator(s), "
          f"{events[0]} → {events[1]} events")
    for side, counts in (("parent", only_parent), ("change", only_change)):
        print(f"only in the {side}: {sum(counts.values())}")
        print("".join(f"  {count:8d}  {name}\n" for name, count in counts.most_common()), end="")
    for index, i1, i2, j1, j2, lines in windows:
        print(f"simulator #{index}: parent events [{i1}, {i2}), change events [{j1}, {j2})")
        print("\n".join(lines))
    return 1


def main(argv: list[str]) -> int:
    if argv[:1] == ["--record"]:
        record(argv[1], argv[2:])
        return 0
    if len(argv) < 2:
        print("usage: trace_diff.py <parent checkout> <command> [args...]", file=sys.stderr)
        return 2
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with tempfile.TemporaryDirectory() as scratch:
        parent = streams(argv[0], argv[1:], os.path.join(scratch, "parent"))
        change = streams(here, argv[1:], os.path.join(scratch, "change"))
        pairs = ((read(a), read(b)) for a, b in itertools.zip_longest(parent, change))
        return report(" ".join(argv[1:]), (len(parent), len(change)), pairs)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
