"""The verdict ``scripts/bench_pairs.py`` prints is the rule a gain is claimed
by: nine pairs in ten won, and medians further apart than the parent's IQR."""

import argparse
import importlib.util
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parents[2] / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def runs(parent, change):
    return [{"parent": p, "change": c} for p, c in zip(parent, change)]


PARENT = [1.46, 1.45, 1.47, 1.46, 1.48, 1.44, 1.46, 1.47, 1.45, 1.46]


def test_nine_wins_in_ten_beyond_the_parents_iqr_is_a_gain():
    change = [1.20] * 9 + [1.50]
    row = bench_pairs.compare(runs(PARENT, change), bound=0.12)
    assert (row["change_wins"], row["change_losses"]) == (9, 1)
    assert row["verdict"] == "gain"
    assert row["median_delta_pct"] == round(100 * (1.20 - 1.46) / 1.46, 2)
    assert row["parent_iqr"] == round(row["parent"]["q3"] - row["parent"]["q1"], 4)


def test_eight_wins_in_ten_is_not_a_gain_and_a_tie_is_no_win():
    assert bench_pairs.compare(runs(PARENT, [1.20] * 8 + [1.50] * 2), 0.12)["verdict"] != "gain"
    tied = bench_pairs.compare(runs(PARENT, [1.20] * 8 + [1.50, PARENT[9]]), 0.12)
    assert (tied["change_wins"], tied["change_losses"]) == (8, 1)
    assert tied["verdict"] == "better in the median"


def test_a_difference_inside_the_parents_iqr_is_unresolved_however_many_pairs_win():
    change = [value - 0.001 for value in PARENT]
    row = bench_pairs.compare(runs(PARENT, change), bound=0.12)
    assert row["change_wins"] == 10
    assert row["verdict"].startswith("unresolved")


def test_a_median_worse_than_the_bound_says_so():
    change = [value * 1.2 for value in PARENT]
    assert bench_pairs.compare(runs(PARENT, change), 0.12)["verdict"] == "worse than the bound"
    change = [value * 1.05 for value in PARENT]
    assert bench_pairs.compare(runs(PARENT, change), 0.12)["verdict"].startswith("worse in the")


def test_one_pair_has_a_summary_and_no_spread():
    assert bench_pairs.summary([1.5]) == {"median": 1.5, "n": 1, "q1": 1.5, "q3": 1.5}


def test_a_workload_list_keeps_its_order_and_refuses_a_name_the_benchmark_lacks():
    known = ["flood_modified", "tcp_proxy", "bind_mixed"]
    assert bench_pairs.workload_list("tcp_proxy", known) == ["tcp_proxy"]
    assert bench_pairs.workload_list("bind_mixed, flood_modified", known) == [
        "bind_mixed", "flood_modified",
    ]
    for bad in ("", ",", "tcp_proxy,tcp_proxi"):
        with pytest.raises(argparse.ArgumentTypeError):
            bench_pairs.workload_list(bad, known)
