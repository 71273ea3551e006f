"""Observability context: installation, collection, exports, CLI smoke."""

import json

from repro.dns import LrsSimulator
from repro.experiments.testbed import ANS_ADDRESS, GuardTestbed
from repro.netsim import Simulator
from repro.obs import Observability, current, installed, load_spans


def _observed_run():
    obs = Observability()
    with installed(obs):
        bed = GuardTestbed(ans="simulator", ans_mode="answer")
        obs.tap(bed.guard_node, protocol="udp", max_records=25)
        client = bed.add_client("lrs", via_local_guard=True)
        lrs = LrsSimulator(client, ANS_ADDRESS, workload="plain")
        lrs.start()
        bed.run(0.05)
        lrs.stop()
    return obs


class TestInstallation:
    def test_simulators_attach_while_installed(self):
        obs = Observability()
        with installed(obs):
            assert current() is obs
            sim = Simulator(seed=0)
            assert sim.obs is obs
        assert current() is None
        assert Simulator(seed=0).obs is None

    def test_clock_follows_latest_simulator(self):
        obs = Observability()
        with installed(obs):
            sim = Simulator(seed=0)
            sim.schedule(1.5, lambda: None)
            sim.run(until=2.0)
        assert obs.now == sim.now
        assert obs.registry.now() == sim.now
        assert obs.now >= 1.5


class TestCollect:
    def test_collect_pulls_node_link_and_component_stats(self):
        obs = _observed_run()
        obs.collect()
        names = {m.name for m in obs.registry}
        assert "node.packets_dropped" in names
        assert "link.packets_sent" in names
        assert "guard.guard.queries_seen" in names
        assert "ans.ans.requests_served" in names
        queries_seen = [
            m for m in obs.registry if m.full_name == "guard.guard.queries_seen"
        ]
        assert queries_seen and queries_seen[0].value > 0

    def test_collect_is_idempotent(self):
        obs = _observed_run()
        obs.collect()
        count = len(obs.registry)
        obs.collect()
        assert len(obs.registry) == count

    def test_guard_decisions_counted(self):
        obs = _observed_run()
        decisions = obs.registry.find("guard.decisions")
        assert decisions
        assert sum(m.value for m in decisions) > 0
        # decision counters are time-bucketed for rate series
        assert any(m.series() for m in decisions)


class TestWrite:
    def test_write_emits_all_artifacts(self, tmp_path):
        obs = _observed_run()
        written = obs.write(str(tmp_path))
        names = {p.rsplit("/", 1)[-1] for p in written}
        assert names == {
            "metrics.json",
            "series.csv",
            "spans.json",
            "report.txt",
            "trace.txt",
        }
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert any(m["name"] == "guard.decisions" for m in metrics)
        spans = load_spans((tmp_path / "spans.json").read_text())
        assert spans.named("lrs.interaction")
        trace = (tmp_path / "trace.txt").read_text()
        assert "DNS query" in trace

    def test_write_without_taps_or_profiler(self, tmp_path):
        obs = Observability()
        with installed(obs):
            sim = Simulator(seed=0)
            sim.schedule(0.1, lambda: None)
            sim.run(until=1.0)
        names = {p.rsplit("/", 1)[-1] for p in obs.write(str(tmp_path))}
        assert "trace.txt" not in names
        assert "profile.json" not in names


class TestCliSmoke:
    def test_obs_command_prints_report(self, capsys):
        from repro.__main__ import main

        assert main(["obs", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "== run report ==" in out
        assert "guard.decisions" in out

    def test_obs_flag_exports_from_any_command(self, tmp_path, capsys):
        from repro.__main__ import main

        out_dir = tmp_path / "exported"
        assert main(["demo", "--obs", str(out_dir)]) == 0
        capsys.readouterr()
        assert (out_dir / "report.txt").exists()
        assert (out_dir / "metrics.json").exists()
