"""Every lint rule: positive fixtures (must flag) and negative (must not)."""

import textwrap

from repro.analysis import lint_source
from repro.analysis.registry import RULES


def findings_for(source: str, rule: str | None = None):
    found = lint_source(textwrap.dedent(source))
    if rule is None:
        return found
    return [f for f in found if f.rule == rule]


class TestRegistry:
    def test_all_expected_rules_registered(self):
        assert {"D001", "D002", "D003", "D004", "D005", "W001"} <= set(RULES)

    def test_rules_carry_docs(self):
        for rule in RULES.values():
            assert rule.summary
            assert rule.rationale


class TestD001WallClock:
    def test_flags_time_time(self):
        found = findings_for(
            """
            import time

            def deadline():
                return time.time() + 5
            """,
            "D001",
        )
        assert len(found) == 1
        assert found[0].line == 5
        assert "time.time" in found[0].message

    def test_flags_monotonic_and_datetime_now(self):
        source = """
        import time, datetime

        def stamp():
            a = time.monotonic()
            b = datetime.datetime.now()
            return a, b
        """
        rules = [f.rule for f in findings_for(source)]
        assert rules.count("D001") == 2

    def test_clean_virtual_time_ok(self):
        assert not findings_for(
            """
            def deadline(sim):
                return sim.now + 5
            """,
            "D001",
        )


class TestD002Randomness:
    def test_flags_import_random(self):
        found = findings_for("import random\n", "D002")
        assert len(found) == 1
        assert "Simulator.rng" in found[0].message

    def test_flags_from_random_import(self):
        assert findings_for("from random import gauss\n", "D002")

    def test_flags_unseeded_random_instance(self):
        found = findings_for(
            """
            import random  # repro: allow[D002]

            def make():
                return random.Random()
            """,
            "D002",
        )
        assert len(found) == 1
        assert "unseeded" in found[0].message

    def test_flags_global_rng_function(self):
        found = findings_for(
            """
            import random  # repro: allow[D002]

            def jitter():
                return random.random() * 2
            """,
            "D002",
        )
        assert len(found) == 1
        assert "process-global" in found[0].message

    def test_flags_os_entropy(self):
        found = findings_for(
            """
            import secrets

            def key():
                return secrets.token_bytes(76)
            """,
            "D002",
        )
        assert len(found) == 1
        assert "OS entropy" in found[0].message

    def test_seeded_random_instance_ok(self):
        assert not findings_for(
            """
            import random  # repro: allow[D002]

            def make(seed):
                return random.Random(seed)
            """,
            "D002",
        )

    def test_simulator_rng_ok(self):
        assert not findings_for(
            """
            def jitter(sim):
                return sim.rng.random() * 2
            """,
            "D002",
        )


class TestD003UnorderedScheduling:
    def test_flags_set_literal_feeding_scheduler(self):
        found = findings_for(
            """
            def arm(sim, cb):
                for delay in {0.1, 0.2, 0.3}:
                    sim.schedule(delay, cb)
            """,
            "D003",
        )
        assert len(found) == 1
        assert "sorted" in found[0].message

    def test_flags_set_call_and_dict_view(self):
        source = """
        def arm(sim, cb, delays, table):
            for delay in set(delays):
                sim.schedule(delay, cb)
            for key in table.keys():
                sim.schedule_at(1.0, cb, key)
        """
        assert len(findings_for(source, "D003")) == 2

    def test_sorted_iteration_ok(self):
        assert not findings_for(
            """
            def arm(sim, cb, delays):
                for delay in sorted(set(delays)):
                    sim.schedule(delay, cb)
            """,
            "D003",
        )

    def test_set_iteration_without_scheduling_ok(self):
        assert not findings_for(
            """
            def total(values):
                acc = 0
                for v in set(values):
                    acc += v
                return acc
            """,
            "D003",
        )


class TestD004MutableDefaults:
    def test_flags_list_default(self):
        found = findings_for(
            """
            def collect(items=[]):
                return items
            """,
            "D004",
        )
        assert len(found) == 1
        assert "collect" in found[0].message

    def test_flags_dict_and_set_calls(self):
        source = """
        def a(x={}):
            return x

        def b(*, y=set()):
            return y
        """
        assert len(findings_for(source, "D004")) == 2

    def test_none_default_ok(self):
        assert not findings_for(
            """
            def collect(items=None):
                return items if items is not None else []
            """,
            "D004",
        )


class TestD005FloatTimeEquality:
    def test_flags_now_equality(self):
        found = findings_for(
            """
            def ready(sim, when):
                return sim.now == when
            """,
            "D005",
        )
        assert len(found) == 1
        assert "tolerance" in found[0].message

    def test_flags_not_equal_on_bare_now(self):
        assert findings_for(
            """
            def stale(now, stamp):
                return now != stamp
            """,
            "D005",
        )

    def test_inequality_comparison_ok(self):
        assert not findings_for(
            """
            def due(sim, when):
                return sim.now >= when
            """,
            "D005",
        )

    def test_unrelated_equality_ok(self):
        assert not findings_for(
            """
            def match(a, b):
                return a == b
            """,
            "D005",
        )


class TestW001SwallowedExceptions:
    def test_flags_bare_except(self):
        found = findings_for(
            """
            def cb():
                try:
                    fire()
                except:
                    pass
            """,
            "W001",
        )
        assert len(found) == 1
        assert "bare except" in found[0].message

    def test_flags_except_exception_pass(self):
        found = findings_for(
            """
            def cb():
                try:
                    fire()
                except Exception:
                    pass
            """,
            "W001",
        )
        assert len(found) == 1
        assert "swallows" in found[0].message

    def test_narrow_handler_ok(self):
        assert not findings_for(
            """
            def cb():
                try:
                    fire()
                except ValueError:
                    pass
            """,
            "W001",
        )

    def test_exception_with_handling_ok(self):
        assert not findings_for(
            """
            def cb(log):
                try:
                    fire()
                except Exception:
                    log.append("boom")
                    raise
            """,
            "W001",
        )


class TestW002ObserveOnly:
    OBS_PATH = "src/repro/obs/runtime.py"

    def _findings(self, source: str, path: str = OBS_PATH):
        found = lint_source(textwrap.dedent(source), path=path)
        return [f for f in found if f.rule == "W002"]

    def test_flags_schedule_calls_in_obs_code(self):
        found = self._findings(
            """
            def sample(self):
                self._sim.schedule(0.1, self.sample)
            """
        )
        assert len(found) == 1
        assert "schedule" in found[0].message

    def test_flags_schedule_at_and_child_rng(self):
        source = """
        def arm(sim):
            sim.schedule_at(1.0, print)
            stream = sim.child_rng("obs")
        """
        assert len(self._findings(source)) == 2

    def test_flags_rng_attribute_access(self):
        found = self._findings(
            """
            def jitter(sim):
                return sim.rng.random()
            """
        )
        assert found
        assert any(".rng" in f.message for f in found)

    def test_other_packages_unaffected(self):
        source = """
        def arm(sim):
            sim.schedule(0.1, print)
            sim.rng.random()
        """
        assert not self._findings(source, path="src/repro/netsim/simulator.py")
        assert not self._findings(source, path="src/repro/faults/plan.py")

    def test_allow_marker_suppresses(self):
        found = self._findings(
            """
            def arm(sim):
                sim.schedule(0.1, print)  # repro: allow[W002]
            """
        )
        assert not found

    def test_registered(self):
        assert "W002" in RULES

    def test_whole_obs_package_is_clean(self):
        import pathlib

        import repro.obs

        package_dir = pathlib.Path(repro.obs.__file__).parent
        for path in sorted(package_dir.glob("*.py")):
            found = [
                f
                for f in lint_source(path.read_text(), path=str(path))
                if f.rule == "W002"
            ]
            assert not found, f"{path}: {found}"


class TestW002ActuatorSeam:
    """Mutating guard/limiter entry points are reserved for repro.control."""

    OBS_PATH = "src/repro/obs/exporters.py"

    def _findings(self, source: str, path: str = OBS_PATH):
        found = lint_source(textwrap.dedent(source), path=path)
        return [f for f in found if f.rule == "W002"]

    def test_flags_actuator_calls_from_obs(self):
        found = self._findings(
            """
            def meddle(guard):
                guard.set_policy("drop")
                guard.rl1.reconfigure(10.0, 20.0)
                guard.rotate_cookie_key(b"k")
                guard.set_admission(None)
            """
        )
        assert len(found) == 4
        assert all("actuator seam" in f.message for f in found)

    def test_flags_lifecycle_and_reset_calls(self):
        found = self._findings(
            """
            def meddle(guard):
                guard.crash()
                guard.rl1.reset()
            """
        )
        assert len(found) == 2

    def test_control_plane_may_actuate(self):
        source = """
        def escalate(guard):
            guard.set_policy("drop")
            guard.rl1.reconfigure(10.0, 20.0)
        """
        assert not self._findings(source, path="src/repro/control/actuators.py")
        assert not self._findings(source, path="src/repro/faults/plan.py")

    def test_observing_reads_stay_clean(self):
        found = self._findings(
            """
            def peek(guard):
                return guard.stats(), guard.policy_for, guard.admission
            """
        )
        assert not found

    def test_allow_marker_suppresses_seam_finding(self):
        found = self._findings(
            """
            def meddle(guard):
                guard.set_policy("drop")  # repro: allow[W002]
            """
        )
        assert not found


class TestW002FarmSeedPurity:
    """Farm workers: no actuator calls, every RNG from the per-cell seed."""

    FARM_PATH = "src/repro/farm/worker.py"

    def _findings(self, source: str, path: str = FARM_PATH):
        found = lint_source(textwrap.dedent(source), path=path)
        return [f for f in found if f.rule == "W002"]

    def test_flags_private_rng_in_worker(self):
        """The seeded-mutation witness: slip a random.Random() into a farm
        worker and W002 must fire — even with an explicit seed, because
        cell randomness must derive from the per-cell seed alone."""
        found = self._findings(
            """
            import random

            def run_cell(params, seed, fast):
                rng = random.Random()
                jitter = random.Random(42)
            """
        )
        assert len(found) == 2
        assert all("per-cell seed" in f.message for f in found)

    def test_flags_bare_random_constructor(self):
        found = self._findings(
            """
            from random import Random

            def run_cell(params, seed, fast):
                return Random(seed).random()
            """
        )
        assert len(found) == 1

    def test_flags_actuator_calls_from_farm(self):
        found = self._findings(
            """
            def run_cell(guard):
                guard.set_policy("drop")
                guard.rotate_cookie_key(b"k")
            """
        )
        assert len(found) == 2
        assert all("sanctioned" in f.message for f in found)

    def test_schedule_allowed_in_farm(self):
        """Unlike obs, farm code may schedule events — the hybrid fluids
        tick on the simulator; only actuators and private RNGs are out."""
        source = """
        def start(self):
            self._handle = self.sim.schedule(self.tick, self._on_tick)
            stream = self.sim.child_rng("farm")
        """
        assert not self._findings(source)

    def test_other_packages_unaffected(self):
        source = """
        def run_cell(params, seed, fast):
            import random
            return random.Random(seed)
        """
        assert not self._findings(source, path="src/repro/experiments/faults.py")

    def test_whole_farm_package_is_clean(self):
        import pathlib

        import repro.farm

        package_dir = pathlib.Path(repro.farm.__file__).parent
        for path in sorted(package_dir.glob("*.py")):
            found = [
                f
                for f in lint_source(path.read_text(), path=str(path))
                if f.rule == "W002"
            ]
            assert not found, f"{path}: {found}"
