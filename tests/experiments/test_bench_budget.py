"""``scripts/bench_budget.py`` counts where one benchmark run's calls go; its
row is the budget a perf change quotes, so it must describe the run it
counted and repeat exactly."""

import json
import pathlib
import subprocess
import sys

SCRIPT = pathlib.Path(__file__).resolve().parents[2] / "scripts" / "bench_budget.py"


def budget_row(workload: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--workload", workload, "--quick"],
        capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout)


def test_a_quick_flood_row_counts_the_run_it_describes():
    row = budget_row("flood_unguarded")
    assert row["events"] > 1000 and row["link_pkts"] > 1000
    assert row["calls"] == sum(row["frames_by_file"].values())
    assert row["calls_per_link_packet"] == round(row["calls"] / row["link_pkts"], 2)
    assert row["enum_py_frames"] == row["frames_by_file"].get("enum.py", 0) == 0
    # the flood's hop enters nothing in ipaddress.py: what is left there is
    # the attacker building its spoofed sources
    assert set(row["ipaddress_by_caller"]) <= {
        "ipaddress.py", "repro/attack/spoof.py", "repro/dnswire/rdata.py",
    }
    assert row == budget_row("flood_unguarded")
    assert row["decodes"] == 0  # the flood is UDP end to end: nothing is parsed


def test_a_quick_tcp_proxy_row_counts_parses_and_encodes():
    """The proxy de-frames every query and the client every response, two
    shapes in all: each is parsed twice and encoded once, then memoized."""
    row = budget_row("tcp_proxy")
    assert row["link_pkts"] > 1000
    assert 0 < row["decodes"] <= 8 and 0 < row["encodes"] <= 8
    assert row["frames_by_file"]["repro/dnswire/name.py"] < row["link_pkts"] / 4
