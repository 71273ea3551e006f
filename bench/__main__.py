"""Command line of the repo benchmark.

``python3 -m bench``
    every workload, untraced then traced, one fresh process each, one
    after another; prints every metric by name with its unit.
``python3 -m bench --workload W --seed N --seconds S --trace 0|1``
    one run in this process (what ``BENCHMARK.json``'s driver calls); the
    last line of output is the result object.
``--quick``      1/20 simulated duration, one repetition: a smoke run,
                 not comparable with anything.
``--selfcheck``  the untraced set twice (A/A); non-zero exit if the two
                 disagree by more than a metric's own bound.
``--out PATH``   also write the full result JSON to PATH.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@functools.cache
def _manifest() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _use_this_checkout() -> None:
    """Measure the ``src/repro`` beside this package, never an installed copy."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        sys.exit("bench: no src/repro beside bench/ - nothing to measure")
    sys.path.insert(0, src)


def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def _spread(summary: dict) -> float:
    return (summary["q3"] - summary["q1"]) / summary["median"]


def _print_result(result: dict, units: dict[str, str], quick: bool) -> None:
    label = "  NOT COMPARABLE (--quick)" if quick else ""
    print(
        f"== {result['workload']} seed={result['seed']} trace={result['trace']} "
        f"({result['sim_seconds']:.4g} sim-s per repetition){label}"
    )
    for name, value in result["metrics"].items():
        print(f"{name:<42} {_fmt(value):>12} {units[name]}")
    timings = result["timings"]
    if result["trace"] == 0:
        raw = timings["raw_wall_s"]
        print(
            f"  wall_s is at nominal host speed (the kernel took {result['host_slowdown']:.3f} "
            f"of its nominal time here); raw repetitions: median of {raw['n']} "
            f"{raw['median']:.4f} s, q1 {raw['q1']:.4f} q3 {raw['q3']:.4f} min "
            f"{raw['min']:.4f} max {raw['max']:.4f}, quartile spread {_spread(raw):.3f} "
            f"of the median; with {raw['n']} samples no percentile above the median "
            "is reportable"
        )
        print(
            f"  setup_s = import {timings['import_s']['median']:.4f} (median of "
            f"{timings['import_s']['n']} fresh interpreters) + build "
            f"{timings['build_s']['median']:.4f} (median of {timings['build_s']['n']})"
        )
        print(f"  sim_s_per_wall_s {result['sim_s_per_wall_s']:.5f} (information only)")
    else:
        print(
            f"  untraced {timings['untraced_wall_s']:.4f} s, traced "
            f"{timings['traced_wall_s']:.4f} s; layer self times sum to the traced total"
        )
    print(
        f"  paper_rel_err {result['paper_rel_err']:.4f} (legit {result['legit_krps']:.2f} "
        f"vs paper {result['paper_krps']:.1f} K req/s); ops_failed_share "
        f"{result['failed'] / result['attempted']:.4f} ({result['failed']} of "
        f"{result['attempted']})"
    )
    print(f"  sim_digest {result['sim_digest']}")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")


def single_run(args) -> int:
    """One workload in this process; the driver's entry point."""
    from . import runner
    from .workloads import BY_NAME

    workload = BY_NAME[args.workload]
    if args.trace:
        result = runner.run_traced(workload, args.seed, quick=args.quick)
        units = runner.per_layer_units()
    else:
        seconds = 0.0 if args.quick else args.seconds
        result = runner.run_untraced(workload, args.seed, seconds, quick=args.quick)
        units = runner.END_TO_END_UNITS
    _print_result(result, units, args.quick)
    print("detail " + json.dumps(result))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in result["metrics"].items()
        },
    }))
    return 0


def _child(workload: str, args, trace: int) -> dict:
    """Run one workload in a fresh interpreter; echo its report, return its detail."""
    command = [
        sys.executable, "-m", "bench", "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ]
    if args.quick:
        command.append("--quick")
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise SystemExit(f"bench: {workload} trace={trace} exited {done.returncode}")
    lines = done.stdout.splitlines()
    print("\n".join(lines[:-2]), flush=True)
    return json.loads(lines[-2].removeprefix("detail "))


def _workload_names(args) -> list[str]:
    return [args.workload] if args.workload else [w["name"] for w in _manifest()["workloads"]]


def full_run(args) -> int:
    """Every workload, untraced then traced, and the combined report."""
    from . import micro, runner

    units = runner.per_layer_units()
    results = {}
    for name in _workload_names(args):
        results[name] = {"untraced": _child(name, args, 0), "traced": _child(name, args, 1)}
    runs = [run for pair in results.values() for run in pair.values()]
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    # the micro-benchmarks do not depend on the workload: every traced run
    # measured them once, so report the median over those runs
    micro_medians = {
        name: statistics.median(pair["traced"]["metrics"][name] for pair in results.values())
        for name in micro.NAMES
    }
    print(f"== isolated micro-benchmarks (median over {len(results)} traced runs)")
    for name, value in micro_medians.items():
        print(f"{name:<42} {_fmt(value):>12} {units[name]}")
    print(
        f"== ops_failed_share {failed / attempted:.4f} ratio ({failed} of {attempted} "
        "repetitions and micro-benchmarks)"
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({
                "benchmark": "bench",
                "date": time.strftime("%Y-%m-%d"),
                "seed": args.seed,
                "quick": args.quick,
                "ops_failed_share": failed / attempted,
                "workloads": results,
                "micro": micro_medians,
            }, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 1 if failed else 0


def selfcheck(args) -> int:
    """The untraced set twice, A then B; do the two agree within each bound?"""
    bounds = {metric["name"]: metric["bound"] for metric in _manifest()["end_to_end"]}
    names = _workload_names(args)
    first = {name: _child(name, args, 0) for name in names}
    second = {name: _child(name, args, 0) for name in names}
    disagreements = 0
    print("== selfcheck (A/A): two untraced sets of the same code")
    print(f"{'workload':<16} {'metric':<12} {'A':>10} {'B':>10} {'B/A-1':>8} "
          f"{'raw spr':>7} {'bound':>6}  verdict")
    for name in names:
        a, b = first[name], second[name]
        for metric, bound in bounds.items():
            va, vb = a["metrics"][metric], b["metrics"][metric]
            # lower is better for every end-to-end metric: B may not be worse
            # than A by more than the bound, nor A than B
            agree = max(va, vb) <= min(va, vb) * (1.0 + bound)
            # the only timing with several samples a run is the raw repetitions'
            spread = f"{_spread(a['timings']['raw_wall_s']):.3f}" if metric == "wall_s" else "-"
            disagreements += not agree
            print(f"{name:<16} {metric:<12} {va:>10.4f} {vb:>10.4f} {vb / va - 1:>+8.3f} "
                  f"{spread:>7} {bound:>6.2f}  {'agree' if agree else 'DISAGREE'}")
        for exact in ("sim_digest", "paper_rel_err"):
            if a[exact] != b[exact]:
                disagreements += 1
                print(f"{name:<16} {exact} differs: {a[exact]} vs {b[exact]}  DISAGREE")
        failed = a["failed"] + b["failed"]
        if failed:
            disagreements += 1
            print(f"{name:<16} {failed} failed operations  DISAGREE")
    print(f"== selfcheck {'passed' if not disagreements else 'FAILED'}: "
          f"{disagreements} disagreements; sim_digest and paper_rel_err identical "
          "wherever not listed above")
    return 1 if disagreements else 0


def main(argv=None) -> int:
    manifest = _manifest()
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[w["name"] for w in manifest["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=manifest["run_seconds"],
                        help="measure at least this long per untraced run")
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--out", metavar="PATH")
    args = parser.parse_args(argv)
    if args.trace is not None and not args.workload:
        parser.error("--trace needs --workload")
    _use_this_checkout()
    if args.selfcheck:
        return selfcheck(args)
    if args.trace is not None:
        return single_run(args)
    return full_run(args)


if __name__ == "__main__":
    sys.exit(main())
