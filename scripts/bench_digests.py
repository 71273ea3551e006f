"""What "behaviour pinned" is judged on: the five benchmark scenarios at their
frozen sizes, seeds 0 and 7, run once each and untimed.

One line per run — ``workload seed sim_digest timed_events link_pkts`` — so
parent-vs-change is one ``diff`` of two files (``make bench-digests OUT=<file>``
in each checkout).  Reads ``bench.workloads``; changes nothing under ``bench/``.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (0, 7)


def main() -> None:
    # this checkout's bench/ and src/repro, never an installed copy
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    from bench.workloads import WORKLOADS

    for workload in WORKLOADS:
        for seed in SEEDS:
            outputs = workload.build(seed).run(workload.warmup, workload.duration)
            print(
                workload.name, seed, outputs.digest(), outputs.timed_events, outputs.link_pkts,
                flush=True,
            )


if __name__ == "__main__":
    main()
