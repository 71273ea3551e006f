"""R001/R002: static effect inference over scheduled callbacks."""

import functools
import ast
import textwrap
from pathlib import Path

from repro.analysis import analyze
from repro.analysis.declarations import load_declarations


def declarations_for_module(tree):
    return load_declarations(tree).shared_state

#: the races family through the one kernel entry point
analyze_races = functools.partial(analyze, families=("races",))

REPO_SRC = Path(__file__).resolve().parents[2] / "src"


def write(tmp_path: Path, name: str, source: str, prelude: str = "") -> Path:
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(prelude + textwrap.dedent(source), encoding="utf-8")
    return path


DECL = """\
__shared_state__ = {
    "Guard": {"guarded": ["table"], "commutative": ["hits"]},
}
"""


class TestDeclarations:
    def test_parse_and_classify(self):
        decls = declarations_for_module(ast.parse(DECL))
        assert set(decls) == {"Guard"}
        assert decls["Guard"].guarded == frozenset({"table"})
        assert decls["Guard"].commutative == frozenset({"hits"})
        assert decls["Guard"].all_attrs == frozenset({"table", "hits"})

    def test_non_literal_declaration_ignored(self):
        decls = declarations_for_module(
            ast.parse("__shared_state__ = make_decl()")
        )
        assert decls == {}


class TestR001:
    def test_overlapping_writes_same_lane_fire(self, tmp_path):
        write(
            tmp_path,
            "mod.py",
            """
            class Guard:
                def arm(self, sim):
                    sim.schedule(1.0, self.expire)
                    sim.schedule(1.0, self.refresh)
                def expire(self):
                    self.table.pop("k", None)
                def refresh(self):
                    self.table["k"] = 1
            """,
            prelude=DECL,
        )
        findings = analyze_races([tmp_path])
        assert [f.rule for f in findings] == ["R001"]
        assert "Guard.table" in findings[0].message

    def test_boundary_lane_separates_the_pair(self, tmp_path):
        write(
            tmp_path,
            "mod.py",
            """
            BOUNDARY_PRIORITY = -1

            class Guard:
                def arm(self, sim):
                    sim.schedule(1.0, self.expire, priority=BOUNDARY_PRIORITY)
                    sim.schedule(1.0, self.refresh)
                def expire(self):
                    self.table.pop("k", None)
                def refresh(self):
                    self.table["k"] = 1
            """,
            prelude=DECL,
        )
        assert analyze_races([tmp_path]) == []

    def test_commutative_cells_exempt(self, tmp_path):
        write(
            tmp_path,
            "mod.py",
            """
            class Guard:
                def arm(self, sim):
                    sim.schedule(1.0, self.count_a)
                    sim.schedule(1.0, self.count_b)
                def count_a(self):
                    self.hits += 1
                def count_b(self):
                    self.hits += 2
            """,
            prelude=DECL,
        )
        assert analyze_races([tmp_path]) == []

    def test_periodic_self_reschedule_is_not_a_pair(self, tmp_path):
        write(
            tmp_path,
            "mod.py",
            """
            class Guard:
                def arm(self, sim):
                    sim.schedule(1.0, self.sweep)
                def sweep(self):
                    self.table.clear()
                    self.sim.schedule(1.0, self.sweep)
            """,
            prelude=DECL,
        )
        assert analyze_races([tmp_path]) == []

    def test_effects_propagate_through_helpers(self, tmp_path):
        write(
            tmp_path,
            "mod.py",
            """
            class Guard:
                def arm(self, sim):
                    sim.schedule(1.0, self.expire)
                    sim.schedule(1.0, self.refresh)
                def expire(self):
                    self._drop()
                def _drop(self):
                    self.table.pop("k", None)
                def refresh(self):
                    self.table["k"] = 1
            """,
            prelude=DECL,
        )
        assert [f.rule for f in analyze_races([tmp_path])] == ["R001"]

    def test_inline_allow_suppresses(self, tmp_path):
        write(
            tmp_path,
            "mod.py",
            """
            class Guard:
                def arm(self, sim):
                    sim.schedule(1.0, self.expire)  # repro: allow[R001] composes
                    sim.schedule(1.0, self.refresh)
                def expire(self):
                    self.table.pop("k", None)
                def refresh(self):
                    self.table["k"] = 1
            """,
            prelude=DECL,
        )
        assert analyze_races([tmp_path]) == []

    def test_same_attr_different_classes_do_not_alias(self, tmp_path):
        write(
            tmp_path,
            "mod.py",
            """
            __shared_state__ = {
                "A": {"guarded": ["table"]},
                "B": {"guarded": ["table"]},
            }

            class A:
                def arm(self, sim):
                    sim.schedule(1.0, self.touch)
                def touch(self):
                    self.table["k"] = 1

            class B:
                def arm(self, sim):
                    sim.schedule(1.0, self.touch2)
                def touch2(self):
                    self.table["k"] = 2
            """,
        )
        assert analyze_races([tmp_path]) == []


class TestR002:
    def test_undeclared_write_outside_init_fires(self, tmp_path):
        write(
            tmp_path,
            "mod.py",
            """
            class Guard:
                def __init__(self):
                    self.table = {}
                    self.cache = {}
                def handle(self):
                    self.cache["k"] = 1
            """,
            prelude=DECL,
        )
        findings = analyze_races([tmp_path])
        assert [f.rule for f in findings] == ["R002"]
        assert "self.cache" in findings[0].message

    def test_required_module_without_declaration_fires(self, tmp_path):
        write(
            tmp_path,
            "guard/core/ratelimit.py",
            """
            class TokenBucket:
                def consume(self):
                    self._tokens -= 1
            """,
        )
        findings = analyze_races([tmp_path])
        assert [f.rule for f in findings] == ["R002"]
        assert "__shared_state__" in findings[0].message


class TestRepoIsClean:
    def test_repo_src_has_no_race_findings(self):
        assert analyze_races([REPO_SRC]) == []

    def test_required_modules_declare_shared_state(self):
        for name in (
            Path("guard") / "pipeline.py",
            Path("guard") / "local_guard.py",
            Path("guard") / "tcp_scheme.py",
            Path("guard") / "core" / "ratelimit.py",
            Path("guard") / "core" / "admission.py",
            Path("faults") / "plan.py",
        ):
            tree = ast.parse((REPO_SRC / "repro" / name).read_text("utf-8"))
            assert declarations_for_module(tree), f"{name} must declare state"


class TestSeededMutations:
    """PR-4-style mutation proofs: the rule notices the broken repo."""

    def test_removing_shared_state_declaration_fires_r002(self, tmp_path):
        original = (
            REPO_SRC / "repro" / "guard" / "core" / "ratelimit.py"
        ).read_text(encoding="utf-8")
        begin = original.index("__shared_state__")
        end = original.index("}\n", original.index('"RateEstimator"')) + 2
        mutated = original[:begin] + original[end:]
        assert "__shared_state__" not in mutated
        write(tmp_path, "guard/core/ratelimit.py", mutated)
        findings = analyze_races([tmp_path], rule_ids=["R002"])
        assert findings, "deleting __shared_state__ must fire R002"
        assert all(f.rule == "R002" for f in findings)

    def test_unlaning_the_fault_schedule_fires_r001(self, tmp_path):
        """Fault actions demoted to the default lane collide with guard
        timers again: drop the lane (and the allow markers) from
        FaultAction.schedule and R001 must return."""
        plan = (REPO_SRC / "repro" / "faults" / "plan.py").read_text("utf-8")
        pipeline = (REPO_SRC / "repro" / "guard" / "pipeline.py").read_text(
            encoding="utf-8"
        )
        mutated = plan.replace(", priority=BOUNDARY_PRIORITY", "")
        mutated = "\n".join(
            line.split("# repro: allow[")[0].rstrip()
            for line in mutated.splitlines()
        )
        assert mutated != plan
        write(tmp_path, "faults/plan.py", mutated)
        write(tmp_path, "guard/pipeline.py", pipeline)
        findings = analyze_races([tmp_path], rule_ids=["R001"])
        assert findings, "removing the boundary lane must fire R001"
        assert all(f.rule == "R001" for f in findings)
