"""Where one benchmark run's Python calls go, counted rather than timed.

``make bench-budget WORKLOAD=<name> [SEED=n]`` builds one of the five
benchmark scenarios (``bench.workloads``) at its frozen size, runs the timed
region ``Scenario.run(warmup, duration)`` once under a ``sys.setprofile``
counter and prints one JSON row:

* ``events`` and ``link_pkts`` — what the run simulated;
* ``calls`` and ``calls_per_link_packet`` — every call the interpreter
  reported (Python frames and C builtins alike, as cProfile counts them)
  over the run, per packet a link carried;
* ``frames_by_file`` — the same calls by the file that defines the callee
  (``repro/...`` under ``src/``, the stdlib by file name, ``<builtin>``;
  ``<string>`` is code compiled from a string, i.e. the dataclass-generated
  ``__init__``s, which cProfile's (file, line, name) keys fold into one
  entry and so undercount);
* ``ipaddress_by_caller`` — frames entered in the stdlib's ``ipaddress.py``
  by the file of the Python frame that entered them, then by function
  (``_BaseAddress.__hash__`` is entered by whichever frame used an address
  as a dict key, even through ``dict.get``);
* ``top_functions`` — the 25 most-entered Python functions, as
  ``[file, qualified name, calls]`` (code objects that share both, such as
  two lambdas in one function, are summed);
* ``enum_py_frames`` — frames entered in the stdlib's ``enum.py``;
* ``decodes`` and ``encodes`` — full ``Message`` parses (``Message._parse``;
  ``Message.decode`` in a checkout from before the decode memo, where every
  decode was one) and ``Message._encode_once`` calls;
* ``cyclic_garbage`` — objects the run left for the cyclic collector: the
  collector is paused for the run (after a collection that drops whatever
  was garbage before it started) and this is what ``gc.collect()`` finds
  unreachable afterwards.  What the run frees by reference count is not
  counted;
* ``live_pending`` — events still queued to fire when the timed run ends
  (``Simulator.live_pending_events``; cancelled entries not counted): a
  timer that outlives what it guards stays queued and shows here.

Counts are exact and repeat from run to run at one seed, so a before/after
pair of rows is a budget, not a timing.  ``--quick`` runs the scenario at
the benchmark's ``--quick`` scale.  Reads ``bench.workloads``; changes
nothing under ``bench/``.
"""

import argparse
import collections
import gc
import ipaddress
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: how many of the most-entered functions a row lists
TOP_FUNCTIONS = 25


def where(filename: str) -> str:
    """A stable label for the file a function lives in."""
    if filename.startswith(SRC + os.sep):
        return os.path.relpath(filename, SRC)
    if filename.startswith(ROOT + os.sep):
        return os.path.relpath(filename, ROOT)
    return os.path.basename(filename)


def counted(fn):
    """``fn()`` under a profile hook: (its result, calls per code object,
    C calls, ipaddress frames per (caller file, callee qualname))."""
    per_code: dict = {}
    builtins = [0]
    ipaddress_file = ipaddress.__file__
    ipaddress_calls: dict = {}

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            per_code[code] = per_code.get(code, 0) + 1
            if code.co_filename == ipaddress_file:
                key = (frame.f_back.f_code.co_filename, code.co_qualname)
                ipaddress_calls[key] = ipaddress_calls.get(key, 0) + 1
        elif event == "c_call":
            builtins[0] += 1

    sys.setprofile(hook)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return result, per_code, builtins[0], ipaddress_calls


def budget(name: str, seed: int, *, quick: bool = False) -> dict:
    """One counted run of workload ``name`` at ``seed``, as a JSON-ready row."""
    from bench.workloads import BY_NAME, QUICK_SCALE

    workload = BY_NAME[name]
    scale = QUICK_SCALE if quick else 1.0
    scenario = workload.build(seed)
    gc.collect()
    gc.disable()
    try:
        outputs, per_code, builtins, ipaddress_calls = counted(
            lambda: scenario.run(workload.warmup * scale, workload.duration * scale)
        )
        cyclic_garbage = gc.collect()
    finally:
        gc.enable()
    by_file = collections.Counter({"<builtin>": builtins})
    for code, calls in per_code.items():
        by_file[where(code.co_filename)] += calls
    by_function = collections.Counter()
    for code, calls in per_code.items():
        by_function[where(code.co_filename), code.co_qualname] += calls
    by_caller: dict = collections.defaultdict(collections.Counter)
    for (caller, function), calls in ipaddress_calls.items():
        by_caller[where(caller)][function] += calls
    total = sum(by_file.values())
    from repro.dnswire import Message

    parse = getattr(Message, "_parse", Message.decode).__func__.__code__
    return {
        "workload": name,
        "seed": seed,
        "quick": quick,
        "sim_digest": outputs.digest(),
        "events": outputs.timed_events,
        "link_pkts": outputs.link_pkts,
        "calls": total,
        "calls_per_link_packet": round(total / outputs.link_pkts, 2),
        "frames_by_file": dict(by_file.most_common()),
        "ipaddress_by_caller": {
            caller: dict(counts.most_common()) for caller, counts in sorted(by_caller.items())
        },
        "top_functions": [
            [file, function, calls]
            for (file, function), calls in by_function.most_common(TOP_FUNCTIONS)
        ],
        "enum_py_frames": by_file.get("enum.py", 0),
        "decodes": per_code.get(parse, 0),
        "encodes": per_code.get(Message._encode_once.__code__, 0),
        "cyclic_garbage": cyclic_garbage,
        "live_pending": scenario.bed.sim.live_pending_events,
    }


def main() -> int:
    # this checkout's bench/ and src/repro, never an installed copy
    sys.path[:0] = [ROOT, SRC]
    from bench.workloads import BY_NAME

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(BY_NAME))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--quick", action="store_true", help="the benchmark's --quick scale")
    args = parser.parse_args()
    print(json.dumps(budget(args.workload, args.seed, quick=args.quick), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
