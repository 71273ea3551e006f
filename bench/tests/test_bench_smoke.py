"""Smoke tests of the benchmark itself.  Run with ``pytest bench/tests``.

They sit outside tier-1's ``testpaths`` on purpose: the tier-1 suite's
time is unchanged.  Everything runs at ``--quick`` size.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from bench.trace import LAYERS, LayerTracer, layer_index  # noqa: E402
from bench.workloads import BY_NAME, QUICK_SCALE  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    MANIFEST = json.load(_handle)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "-m", "bench", *args], cwd=cwd, capture_output=True,
        text=True, timeout=600,
    )


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    """One full ``--quick`` run at seed 0: its stdout and its ``--out`` file."""
    out = tmp_path_factory.mktemp("bench") / "quick.json"
    done = bench("--quick", "--out", str(out))
    assert done.returncode == 0, done.stderr
    with open(out, encoding="utf-8") as handle:
        return done.stdout, json.load(handle)


def test_quick_emits_exactly_the_manifest(quick):
    stdout, full = quick
    assert "NOT COMPARABLE" in stdout
    assert sorted(full["workloads"]) == sorted(w["name"] for w in MANIFEST["workloads"])
    end_to_end = {m["name"]: m["unit"] for m in MANIFEST["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in MANIFEST["per_layer"]}
    for name, pair in full["workloads"].items():
        assert set(pair["untraced"]["metrics"]) == set(end_to_end), name
        assert set(pair["traced"]["metrics"]) == set(per_layer), name
        assert pair["untraced"]["failed"] == 0, pair["untraced"]["failures"]
        assert pair["traced"]["failed"] == 0, pair["traced"]["failures"]
    for name, unit in {**end_to_end, **per_layer}.items():
        assert re.search(rf"^{re.escape(name)}\s+\S+ {re.escape(unit)}$", stdout, re.M), name
    assert full["ops_failed_share"] == 0.0


def test_names_are_well_formed():
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in MANIFEST[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert len(MANIFEST["per_layer"]) <= 128
    assert MANIFEST["paths"] == ["bench"]
    assert {w["name"]: w["why"] for w in MANIFEST["workloads"]} == {
        w.name: w.why for w in BY_NAME.values()
    }


def test_layer_shares_sum_to_one(quick):
    _, full = quick
    for name, pair in full["workloads"].items():
        metrics = pair["traced"]["metrics"]
        assert sum(metrics[f"{layer}.self_share"] for layer in LAYERS) == pytest.approx(
            1.0, abs=0.02
        ), name
        total = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
        assert total == pytest.approx(pair["traced"]["timings"]["traced_wall_s"], rel=0.02)
        # tracing must not change what is simulated
        assert pair["traced"]["sim_digest"] == pair["untraced"]["sim_digest"], name


def test_driver_mode_prints_the_result_object_last():
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        done = bench("--workload", "tcp_proxy", "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--quick")
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {n: m["unit"] for n, m in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in MANIFEST[key]
        }


def test_digest_follows_the_seed(quick):
    _, full = quick

    def digests(seed):
        done = bench("--workload", "flood_modified", "--seed", str(seed), "--seconds", "1",
                     "--trace", "0", "--quick")
        assert done.returncode == 0, done.stderr
        return re.findall(r"sim_digest (\w+)", done.stdout)

    again, other = digests(0), digests(7)
    assert again == [full["workloads"]["flood_modified"]["untraced"]["sim_digest"]]
    assert other != again


def test_tracer_leaves_no_hook_and_attributes_by_module():
    assert sys.getprofile() is None
    package = os.path.join(ROOT, "src", "repro")
    tracer = LayerTracer(package)
    scenario = BY_NAME["referral_miss"].build(0)
    tracer.run(lambda: scenario.run(0.001, 0.001))
    assert sys.getprofile() is None
    self_s = tracer.self_seconds()
    assert sum(self_s) == pytest.approx(tracer.total_s, rel=1e-9)
    assert self_s[LAYERS.index("dnswire")] > 0
    assert LAYERS[layer_index(os.path.join("guard", "core", "cookie.py"))] == "guard.core"
    assert LAYERS[layer_index(os.path.join("netsim", "netfilter.py"))] == "other"


def test_workloads_match_their_public_entry_points():
    """The split build/run reproduces what the experiment entry points return."""
    from repro.experiments import fig5, fig6, table3

    def legit_rps(name):
        workload = BY_NAME[name]
        return workload, workload.build(5).run(
            workload.warmup * QUICK_SCALE, workload.duration * QUICK_SCALE
        ).legit_rps

    w, rps = legit_rps("flood_modified")
    assert rps == fig6.run_point(
        250_000, True, seed=5, warmup=w.warmup * QUICK_SCALE, duration=w.duration * QUICK_SCALE
    ).legit_throughput
    w, rps = legit_rps("referral_miss")
    assert rps == table3.measure_scheme(
        "ns_name", cache=False, seed=5, warmup=w.warmup * QUICK_SCALE,
        duration=w.duration * QUICK_SCALE,
    )
    w, rps = legit_rps("tcp_proxy")
    assert rps == table3.measure_scheme(
        "tcp", cache=False, seed=5, warmup=w.warmup * QUICK_SCALE,
        duration=w.duration * QUICK_SCALE,
    )
    w, rps = legit_rps("bind_mixed")
    assert rps == fig5.run_point(
        14_000, True, seed=5, warmup=w.warmup * QUICK_SCALE, duration=w.duration * QUICK_SCALE
    ).legit_throughput


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "bench"), tmp_path / "bench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = bench("--workload", "flood_modified", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
