"""Family-neutral tooling: the registry, SARIF, U001, and the CLI."""

import json
import textwrap

import pytest

from repro.analysis.cli import (
    RULES_MD_BEGIN,
    RULES_MD_END,
    main,
    rules_markdown,
)
from repro.analysis import SuppressionTracker, lint_source
from repro.analysis.findings import Finding
from repro.analysis.registry import RULES
from repro.analysis.sarif import (
    SARIF_VERSION,
    results_from_sarif,
    to_sarif,
)

FINDINGS = [
    Finding(path="src/a.py", line=3, col=4, rule="T001", message="tainted sink"),
    Finding(path="src/b.py", line=9, col=0, rule="T002", message="key leak"),
]


class TestSarif:
    def test_document_shape(self):
        doc = to_sarif(FINDINGS, tool_version="1.2")
        assert doc["version"] == SARIF_VERSION
        assert doc["$schema"].endswith("sarif-2.1.0.json")
        (run,) = doc["runs"]
        driver = run["tool"]["driver"]
        assert driver["version"] == "1.2"
        rule_ids = [rule["id"] for rule in driver["rules"]]
        assert rule_ids == sorted(rule_ids)
        assert {"T001", "T002", "D001", "U001", "E999"} <= set(rule_ids)
        for result in run["results"]:
            assert rule_ids[result["ruleIndex"]] == result["ruleId"]
            region = result["locations"][0]["physicalLocation"]["region"]
            assert region["startLine"] >= 1 and region["startColumn"] >= 1

    def test_round_trip(self):
        doc = json.loads(json.dumps(to_sarif(FINDINGS)))
        assert results_from_sarif(doc) == sorted(FINDINGS, key=Finding.sort_key)

    def test_empty_run_is_still_self_describing(self):
        doc = to_sarif([])
        assert doc["runs"][0]["results"] == []
        assert doc["runs"][0]["tool"]["driver"]["rules"]
        assert results_from_sarif(doc) == []

    def test_registry_sarif_and_readme_table_list_the_same_rules(self):
        # one registry: a family cannot be known to --rules-md and missing
        # from the SARIF descriptors (L001-L006 once were)
        driver = to_sarif([])["runs"][0]["tool"]["driver"]
        sarif_ids = [rule["id"] for rule in driver["rules"]]
        md_ids = [
            line.split("`")[1]
            for line in rules_markdown().splitlines()
            if line.startswith("| `")
        ]
        assert sarif_ids == md_ids == sorted(RULES)
        assert len(sarif_ids) == 26 and {"L001", "L006", "E999"} <= set(sarif_ids)

    def test_every_family_finding_carries_its_registered_metadata(self):
        finding = Finding(path="src/c.py", line=1, col=0, rule="L003", message="m")
        run = to_sarif([finding])["runs"][0]
        (descriptor,) = [r for r in run["tool"]["driver"]["rules"] if r["id"] == "L003"]
        assert descriptor["shortDescription"]["text"] == RULES["L003"].summary
        assert run["results"][0]["level"] == RULES["L003"].severity


class TestUnusedSuppression:
    #: stand-in for the full registry the CLI passes as known_rules
    KNOWN = {"D001", "T001", "U001"}

    @classmethod
    def run(cls, source: str) -> list[Finding]:
        tracker = SuppressionTracker()
        findings = lint_source(
            textwrap.dedent(source), "mod.py", tracker=tracker
        )
        assert all(f.rule != "E999" for f in findings)
        return tracker.unused_findings(cls.KNOWN)

    def test_unused_marker_fires(self):
        findings = self.run("x = 1  # repro: allow[D001]\n")
        assert [f.rule for f in findings] == ["U001"]
        assert "did not fire" in findings[0].message

    def test_used_marker_is_silent(self):
        source = """
            import time

            def now():
                return time.time()  # repro: allow[D001] test clock
        """
        assert self.run(source) == []

    def test_unknown_rule_id_always_fires(self):
        findings = self.run("x = 1  # repro: allow[Z999]\n")
        assert [f.rule for f in findings] == ["U001"]
        assert "Z999" in findings[0].message

    def test_marker_for_rule_not_run_is_exempt(self):
        # a lint-only invocation must not flag flow-rule markers as unused
        assert self.run("x = object()  # repro: allow[T001]\n") == []

    def test_docstring_mention_is_not_a_marker(self):
        source = '''
            def f():
                """Suppress with ``# repro: allow[D001]`` on the line."""
                return 1
        '''
        assert self.run(source) == []

    def test_allow_u001_opts_out(self):
        source = "x = 1  # repro: allow[D001,U001] speculative\n"
        assert self.run(source) == []


class TestCli:
    def test_flow_clean_run_exits_zero(self, capsys):
        assert main(["--flow", "src"]) == 0
        assert capsys.readouterr().out.strip().endswith("0 findings")

    def test_flow_finds_seeded_violation(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text(
            textwrap.dedent(
                """
                __trust_boundary__ = {
                    "scheme": "toy",
                    "entry_points": ["G.handle"],
                    "taint_params": ["packet"],
                    "sinks": ["send"],
                }

                class G:
                    def handle(self, packet):
                        self.send(packet)
                """
            )
        )
        assert main(["--flow", str(tmp_path)]) == 1
        assert "T001" in capsys.readouterr().out

    def test_sarif_output_is_valid(self, tmp_path, capsys):
        out = tmp_path / "findings.sarif"
        assert main(["--flow", "--sarif", str(out), "src"]) == 0
        document = json.loads(out.read_text(encoding="utf-8"))
        assert document["version"] == SARIF_VERSION
        assert document["runs"][0]["results"] == []
        capsys.readouterr()

    def test_flow_rule_selection(self, capsys):
        # asking for a flow rule implies the flow engine
        assert main(["--rules", "T002", "src"]) == 0
        capsys.readouterr()

    def test_unknown_rule_id_is_an_error(self, capsys):
        assert main(["--rules", "Z999", "src"]) == 2
        assert "Z999" in capsys.readouterr().err


class TestRulesMarkdown:
    def test_readme_table_is_current(self):
        assert main(["--rules-md-check", "README.md"]) == 0

    def test_generated_block_lists_every_rule(self):
        block = rules_markdown()
        assert block.startswith(RULES_MD_BEGIN)
        assert block.endswith(RULES_MD_END)
        for rule_id in ("D001", "T001", "T002", "R001", "U001", "E999"):
            assert f"`{rule_id}`" in block

    def test_update_rewrites_only_the_block(self, tmp_path):
        target = tmp_path / "doc.md"
        target.write_text(
            f"# Title\n\n{RULES_MD_BEGIN}\nstale\n{RULES_MD_END}\n\ntail\n"
        )
        assert main(["--rules-md-update", str(target)]) == 0
        text = target.read_text()
        assert text.startswith("# Title\n\n")
        assert text.endswith("\n\ntail\n")
        assert "| `T001` |" in text

    def test_check_fails_on_stale_block(self, tmp_path, capsys):
        target = tmp_path / "doc.md"
        target.write_text(f"{RULES_MD_BEGIN}\nstale\n{RULES_MD_END}\n")
        assert main(["--rules-md-check", str(target)]) == 1
        assert "out of date" in capsys.readouterr().err
