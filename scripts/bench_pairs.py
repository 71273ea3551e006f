"""The pairs rule as a recipe: alternating parent/change runs of one workload.

``make bench-pairs PARENT=<checkout> WORKLOAD=<name>[,<name>...] PAIRS=<n>`` runs
``python3 -m bench --workload W --seed S --seconds 12 --trace 0`` (the run
length is ``BENCHMARK.json``'s ``run_seconds``, not an option) once in the
parent checkout and once in this one per pair — never two at a time, side
order alternating, seeds cycling 0/7/3 — and prints, for each end-to-end
metric, each side's median and quartiles, the pairs the change won and lost
(a tie counts for neither) and the verdict of the rule a gain is claimed by:
the change wins at least nine tenths of the pairs and the medians differ by
more than the distance between the parent's own quartiles.  Beside
``setup_s`` it prints each side's median import and build seconds, the two
parts that metric sums.  The output is one
JSON object in the shape of a ``paired`` row of ``scripts/BENCH_layers.json``
per workload listed: several workloads run one after another, never two runs
at a time, each row printed when its pairs are done.
Each side is measured by its own checkout's ``bench`` as a subprocess;
nothing under ``bench/`` is read or changed here.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (0, 7, 3)
#: Share of the pairs the change must win before a gain may be claimed.
WIN_SHARE = 0.9


def bench_run(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run in ``checkout``; the ``detail`` object it prints."""
    command = [
        sys.executable, "-m", "bench", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-2].removeprefix("detail "))


def summary(values: list[float]) -> dict:
    # one pair has no spread: its quartiles are the value itself
    sample = values if len(values) > 1 else values * 2
    q1, median, q3 = statistics.quantiles(sample, n=4, method="inclusive")
    return {"median": round(median, 4), "n": len(values), "q1": round(q1, 4), "q3": round(q3, 4)}


def compare(runs: list[dict], bound: float) -> dict:
    """One lower-is-better metric over ``runs`` of ``{parent, change, ...}``."""
    parent = summary([run["parent"] for run in runs])
    change = summary([run["change"] for run in runs])
    wins = sum(run["change"] < run["parent"] for run in runs)
    losses = sum(run["change"] > run["parent"] for run in runs)
    delta = change["median"] - parent["median"]
    iqr = round(parent["q3"] - parent["q1"], 4)
    if wins >= WIN_SHARE * len(runs) and -delta > iqr:
        verdict = "gain"
    elif delta > bound * parent["median"]:
        verdict = "worse than the bound"
    elif abs(delta) <= iqr:
        verdict = "unresolved (parent IQR wider than the difference)"
    else:
        verdict = "better in the median" if delta < 0 else "worse in the median, inside the bound"
    return {
        "parent": parent,
        "change": change,
        "parent_iqr": iqr,
        "change_wins": wins,
        "change_losses": losses,
        "median_delta_pct": round(100.0 * delta / parent["median"], 2),
        "verdict": verdict,
        "runs": runs,
    }


def measure(manifest: dict, sides: dict[str, str], workload: str, n_pairs: int) -> dict:
    """``n_pairs`` alternating parent/change runs of ``workload``, as one row."""
    # the benchmark sets the run length, the same on both sides
    seconds = manifest["run_seconds"]
    pairs = []
    for index in range(n_pairs):
        seed = SEEDS[index % len(SEEDS)]
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        detail = {side: bench_run(sides[side], workload, seed, seconds) for side in order}
        pairs.append({"pair": index, "seed": seed, "first": order[0], **detail})
        print(
            f"{workload} pair {index} seed {seed} {order[0]} first: wall_s "
            f"parent {detail['parent']['metrics']['wall_s']:.4f} "
            f"change {detail['change']['metrics']['wall_s']:.4f}",
            file=sys.stderr, flush=True,
        )

    result = {
        "workload": workload,
        "pairs": len(pairs),
        "seconds": seconds,
        "ops_failed": sum(p[side]["failed"] for p in pairs for side in sides),
        "sim_digest_identical": all(
            p["parent"]["sim_digest"] == p["change"]["sim_digest"] for p in pairs
        ),
        "paper_rel_err_identical": all(
            p["parent"]["paper_rel_err"] == p["change"]["paper_rel_err"] for p in pairs
        ),
    }
    for metric in manifest["end_to_end"]:
        name = metric["name"]
        runs = [
            {
                "pair": p["pair"], "seed": p["seed"], "first": p["first"],
                "parent": round(p["parent"]["metrics"][name], 4),
                "change": round(p["change"]["metrics"][name], 4),
            }
            for p in pairs
        ]
        result[name] = compare(runs, metric["bound"])
    result["setup_s"]["parts"] = setup_parts(pairs)
    return result


def setup_parts(pairs: list[dict]) -> dict:
    """Each side's median ``import_s`` and ``build_s`` over ``pairs``.

    A run's ``setup_s`` is the median of its fresh-interpreter import probes
    plus the median of its builds (``detail.timings``); beside a moved
    ``setup_s`` these say which of the two moved.
    """
    return {
        part: {
            side: round(statistics.median(p[side]["timings"][part]["median"] for p in pairs), 4)
            for side in ("parent", "change")
        }
        for part in ("import_s", "build_s")
    }


def workload_list(text: str, known: list[str]) -> list[str]:
    """``a,b,c`` as the workloads to run, in that order; each must be known."""
    names = [name.strip() for name in text.split(",") if name.strip()]
    unknown = [name for name in names if name not in known]
    if unknown or not names:
        raise argparse.ArgumentTypeError(
            f"unknown workload {', '.join(unknown) or text!r} (choose from {', '.join(known)})"
        )
    return names


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        manifest = json.load(handle)
    known = [w["name"] for w in manifest["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="a checkout of the parent commit")
    parser.add_argument(
        "--workload", required=True, type=lambda text: workload_list(text, known),
        help="one workload, or several separated by commas (run one after another)",
    )
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args()

    sides = {"parent": os.path.abspath(args.parent), "change": ROOT}
    for workload in args.workload:
        # one row per workload, printed as soon as its pairs are done
        row = measure(manifest, sides, workload, args.pairs)
        print(json.dumps(row, indent=1, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
