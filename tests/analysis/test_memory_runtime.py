"""M006: the high-water-mark monitor, and the CLI severity/U001 contract."""

import textwrap

from repro.analysis.cli import main
from repro.analysis.declarations import StateBound
from repro.analysis.memory.runtime import (
    discover_bounded_classes,
    run_bounds_monitored,
)


class Table:
    """Toy stateful class the monitor watches via ``declared=``."""


def _declared(bound: int):
    spec = StateBound(
        class_name="Table",
        attr="items",
        bound=bound,
        evicted_by=frozenset({"cap"}),
        keyed_by="attacker",
    )
    return [(Table, "toy.py", {"items": spec})]


def _grow(n: int):
    def experiment():
        table = Table()
        table.items = {}
        for i in range(n):
            table.items[i] = i

    return experiment


class TestHighWaterMonitor:
    def test_bound_exceeded_is_m006(self):
        report = run_bounds_monitored(_grow(5), declared=_declared(2))
        assert not report.ok
        assert [f.rule for f in report.findings] == ["M006"]
        assert "high-water mark 5" in report.findings[0].message
        assert report.high_water[("Table", "items")] == (5, 2)
        assert "BOUND EXCEEDED" in report.summary()

    def test_within_bound_is_ok(self):
        report = run_bounds_monitored(_grow(2), declared=_declared(2))
        assert report.ok and report.findings == []
        assert report.classes_watched == 1
        assert report.instances_watched == 1
        assert report.high_water[("Table", "items")] == (2, 2)
        assert "memory: OK" in report.summary()

    def test_setattr_is_restored_after_the_run(self):
        run_bounds_monitored(_grow(1), declared=_declared(8))
        assert Table.__setattr__ is object.__setattr__

    def test_subclass_instances_resolve_the_declared_base(self):
        class Derived(Table):
            pass

        def experiment():
            derived = Derived()
            derived.items = {0: 0, 1: 1, 2: 2}

        report = run_bounds_monitored(experiment, declared=_declared(2))
        assert not report.ok
        # recorded under the declared base, so the bound lookup matches
        assert report.high_water[("Table", "items")] == (3, 2)

    def test_non_sized_values_are_skipped(self):
        def experiment():
            table = Table()
            table.items = None

        report = run_bounds_monitored(experiment, declared=_declared(2))
        assert report.ok
        assert ("Table", "items") not in report.high_water


class TestDiscovery:
    def test_repo_declarations_are_discovered(self):
        names = {cls.__qualname__ for cls, _path, _attrs in discover_bounded_classes()}
        assert {
            "RemoteDnsGuard",
            "LocalDnsGuard",
            "TcpStack",
            "GuardController",
            "Manifest",
        } <= names

    def test_empty_declarations_are_not_watched(self):
        # the honest-empty modules (cookie codec, dns_scheme) declare {}
        for _cls, _path, attrs in discover_bounded_classes():
            assert attrs


class TestMonitoredExperiment:
    def test_short_guarded_run_respects_all_bounds(self):
        def experiment():
            from repro import ANS_ADDRESS, GuardTestbed, LrsSimulator

            bed = GuardTestbed(seed=0, ans="simulator", ans_mode="answer")
            node = bed.add_client("resolver", via_local_guard=True)
            LrsSimulator(node, ANS_ADDRESS, workload="plain").start()
            bed.run(0.05)

        report = run_bounds_monitored(experiment)
        assert report.ok, report.summary()
        assert report.samples > 1
        assert report.instances_watched > 0
        for (_cls, _attr), (seen, bound) in report.high_water.items():
            assert seen <= bound


# -- severity threshold and cross-family suppression hygiene ------------------


class TestFailOnAndU001:
    def _write(self, tmp_path, name, source):
        path = tmp_path / name
        path.write_text(textwrap.dedent(source), encoding="utf-8")
        return path

    def test_unused_memory_allow_is_u001(self, tmp_path, capsys):
        path = self._write(tmp_path, "mod.py", "x = 1  # repro: allow[M003]\n")
        assert main(["--memory", str(path)]) == 1
        out = capsys.readouterr().out
        assert "U001" in out and "M003" in out

    def test_fail_on_error_ignores_the_u001_warning(self, tmp_path):
        path = self._write(tmp_path, "mod.py", "x = 1  # repro: allow[M003]\n")
        assert main(["--memory", "--fail-on", "error", str(path)]) == 0
        assert main(["--memory", "--fail-on", "warning", str(path)]) == 1

    def test_memory_errors_fail_at_every_threshold(self, tmp_path):
        path = self._write(
            tmp_path,
            "mod.py",
            """
            __trust_boundary__ = {
                "scheme": "toy",
                "entry_points": ["Guard.handle"],
                "taint_params": ["packet"],
            }

            class Guard:
                def handle(self, packet):
                    self.table[packet.src] = packet
            """,
        )
        for level in ("note", "warning", "error"):
            assert main(["--memory", "--fail-on", level, str(path)]) == 1

    def test_suppression_used_by_one_engine_is_not_u001_in_a_combined_run(
        self, tmp_path, capsys
    ):
        # the memory engine consumes the allow; the flow/races engines
        # see the same source through the shared tracker and must not flag
        # the marker as unused
        path = self._write(
            tmp_path,
            "mod.py",
            """
            __trust_boundary__ = {
                "scheme": "toy",
                "entry_points": ["Guard.handle"],
                "taint_params": ["packet"],
            }

            class Guard:
                def handle(self, packet):
                    self.table[packet.src] = packet  # repro: allow[M001] toy
            """,
        )
        assert main(["--flow", "--races", "--memory", str(path)]) == 0
        assert "U001" not in capsys.readouterr().out
