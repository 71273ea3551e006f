"""The shared single-parse path: parsed ASTs feed every rule family."""

import ast
import json
import textwrap
from pathlib import Path

import repro.analysis.engine as lint_engine
from repro.analysis import FAMILIES, Facts, SuppressionTracker, analyze, lint_source, run
from repro.analysis.bench import write_bench_analysis


REPO_SRC = Path(__file__).resolve().parents[2] / "src"


def write(tmp_path, name, source):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


class TestParsedEquivalence:
    def test_lint_with_shared_parse_matches_cold_parse(self, tmp_path):
        write(
            tmp_path,
            "mod.py",
            """
            import time


            def stamp():
                return time.time()
            """,
        )
        cold = analyze([tmp_path])
        facts = Facts([tmp_path])
        warm = run(["lint"], facts)
        assert warm == cold
        assert warm, "fixture should produce at least one finding"
        # the same facts serve any number of runs and families
        assert run(["lint"], facts) == cold
        assert run(list(FAMILIES), facts) == cold

    def test_syntax_error_file_still_reported_with_shared_parse(self, tmp_path):
        write(tmp_path, "broken.py", "def oops(:\n")
        facts = Facts([tmp_path])  # the E999 file is not a module
        assert facts.modules == []
        assert [f.rule for f in run(["lint"], facts)] == ["E999"]
        # whichever families run, an unparsable file is never silently skipped
        assert [f.rule for f in run(["memory"], facts)] == ["E999"]

    def test_each_source_is_tokenised_once_per_run(self, tmp_path, monkeypatch):
        write(tmp_path, "a.py", "import random  # repro: allow[D002] fixture\n")
        write(tmp_path, "b.py", "x = 1  # repro: allow[T001] fixture\n")
        write(tmp_path, "broken.py", "def oops(:  # repro: allow[E999]\n")
        real = lint_engine.suppressed_rules
        seen: list[str] = []

        def counting(source):
            seen.append(source)
            return real(source)

        monkeypatch.setattr(lint_engine, "suppressed_rules", counting)
        tracker = SuppressionTracker()
        findings = analyze([tmp_path], families=list(FAMILIES), tracker=tracker)
        assert findings == []  # every marker, E999's included, was honoured
        assert len(seen) == 3 and len(set(seen)) == 3
        # ...and the one-source entry point registers, it does not re-scan
        del seen[:]
        lint_source("import random  # repro: allow[D002]\n", tracker=tracker)
        assert len(seen) == 1


    def test_each_tree_is_walked_once_per_run(self, monkeypatch):
        """The walk budget: the full six-family gate over ``src/`` takes at
        most 3x the parsed node count out of tree traversal — the index
        builder's one pass plus the rules' sub-expression walks (17.0x,
        2,069,952 / 121,950, when every rule walked for itself) — and no
        rule walks a module tree or a whole function body."""
        real_walk = ast.walk
        roots: list[ast.AST] = []
        walked = 0

        def counting_walk(node):
            nonlocal walked
            roots.append(node)
            for sub in real_walk(node):
                walked += 1
                yield sub

        monkeypatch.setattr(ast, "walk", counting_walk)
        facts = Facts([REPO_SRC])
        run(list(FAMILIES), facts)
        monkeypatch.undo()

        parsed = sum(len(module.nodes) for module in facts.modules)
        assert parsed > 100_000, "the gate's own tree should be what is measured"
        assert parsed + walked <= 3 * parsed, (parsed, walked)
        whole = {module.tree for module in facts.modules} | {
            decl.node for module in facts.modules for decl in module.defs
        }
        rewalked = [root for root in roots if root in whole]
        assert not rewalked, f"{len(rewalked)} whole-tree/whole-function walks"


class TestBenchAnalysis:
    def test_writes_document_shape(self, tmp_path):
        path = tmp_path / "BENCH_analysis.json"
        doc = write_bench_analysis(
            str(path),
            [("parse", 0.5), ("lint", 0.25)],
            date="2026-08-08",
        )
        assert doc["benchmark"] == "analysis-cli"
        assert doc["unit"] == "seconds"
        assert doc["value"] == 0.75
        assert doc["detail"]["phases"] == {"parse": 0.5, "lint": 0.25}
        assert doc["trajectory"] == [
            {"date": "2026-08-08", "seconds": 0.75, "phases": {"parse": 0.5, "lint": 0.25}}
        ]
        on_disk = json.loads(path.read_text(encoding="utf-8"))
        assert on_disk == doc

    def test_appends_to_existing_trajectory(self, tmp_path):
        path = tmp_path / "BENCH_analysis.json"
        write_bench_analysis(str(path), [("parse", 1.0)], date="2026-08-01")
        doc = write_bench_analysis(str(path), [("parse", 0.8)], date="2026-08-08")
        assert [entry["date"] for entry in doc["trajectory"]] == [
            "2026-08-01",
            "2026-08-08",
        ]
        assert doc["value"] == 0.8

    def test_corrupt_previous_document_starts_fresh(self, tmp_path):
        path = tmp_path / "BENCH_analysis.json"
        path.write_text("{not json", encoding="utf-8")
        doc = write_bench_analysis(str(path), [("parse", 0.1)], date="2026-08-08")
        assert len(doc["trajectory"]) == 1
