"""Tests for the ``python -m repro`` command-line interface and the
artefact table behind it."""

import pathlib
import re
import shlex

import pytest

from repro.__main__ import ARTEFACTS, build_parser, main

REPO = pathlib.Path(__file__).resolve().parents[2]

#: Every file that documents or scripts a ``python -m repro`` invocation.
DOCS = (
    "README.md",
    "EXPERIMENTS.md",
    "DESIGN.md",
    "scripts/check.sh",
    "Makefile",
    ".github/workflows/check.yml",
)

#: Every flag any row declares, by option string.
ALL_FLAGS = {
    name: kwargs for row in ARTEFACTS.values() for name, kwargs in row.flags
}


def _argv(flag: str) -> list[str]:
    """``flag`` with a value when it takes one."""
    return [flag] if ALL_FLAGS[flag].get("action") == "store_true" else [flag, "1"]


def documented_invocations() -> list[tuple[str, list[str]]]:
    """``(file, argv)`` for each ``python -m repro ...`` line in :data:`DOCS`."""
    found = []
    for doc in DOCS:
        text = (REPO / doc).read_text(encoding="utf-8").replace("\\\n", " ")
        text = re.sub(r"\$\([a-z][^)]*\)", "SUBST", text)  # "$(mktemp -d)"
        for match in re.finditer(r"(?:python|\$\(PYTHON\)) -m repro ([^`\n]*)", text):
            tail = re.split(r"\s+[#|>]", match.group(1))[0].strip().rstrip(").,")
            if tail and not tail.startswith("<"):  # `<cmd>` placeholders
                found.append((doc, shlex.split(tail)))
    return found


class TestCli:
    def test_fluid(self, capsys):
        assert main(["fluid"]) == 0
        out = capsys.readouterr().out
        assert "guard saturates" in out

    def test_table1_fast(self, capsys):
        assert main(["table1", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "modified" in out

    def test_demo(self, capsys):
        assert main(["demo", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "forged requests dropped" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    def test_farm_list(self, capsys):
        assert main(["farm", "--list"]) == 0
        out = capsys.readouterr().out
        assert "faults" in out and "hybrid" in out and "smoke" in out

    def test_farm_serial_selftest(self, capsys, tmp_path):
        manifest = str(tmp_path / "m.json")
        # the selftest matrix includes one always-failing cell -> exit 1
        assert main(["farm", "--matrix", "selftest", "--manifest", manifest]) == 1
        out = capsys.readouterr().out
        assert "manifest digest:" in out
        assert "failed: selftest/behaviour=boom" in out

    def test_farm_rejects_sanitize_modes(self):
        with pytest.raises(SystemExit):
            main(["farm", "--matrix", "smoke", "--sanitize"])
        with pytest.raises(SystemExit):
            main(["faults", "--shards", "2", "--races"])


class TestArtefactTable:
    @pytest.mark.parametrize("name", ARTEFACTS)
    def test_row_builds_its_subparser(self, name):
        row = ARTEFACTS[name]
        assert row.handler is not None or (row.run and row.render)
        assert build_parser().parse_args([name]).command == name

    @pytest.mark.parametrize("name", ARTEFACTS)
    def test_row_accepts_exactly_its_declared_flags(self, name, capsys):
        declared = {flag for flag, _ in ARTEFACTS[name].flags}
        parser = build_parser()
        for flag in ALL_FLAGS:
            if flag in declared:
                parser.parse_args([name, *_argv(flag)])
            else:
                with pytest.raises(SystemExit) as exit_info:
                    parser.parse_args([name, *_argv(flag)])
                assert exit_info.value.code == 2, (name, flag)

    @pytest.mark.parametrize(
        "argv", (["table2", "--plot"], ["fluid", "--seed", "1"], ["farm", "--races"])
    )
    def test_undeclared_flag_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2

    def test_plot_rows_declare_the_flag(self):
        for row in ARTEFACTS.values():
            assert (row.plot is not None) == ("--plot" in dict(row.flags)), row.name

    def test_readme_command_table_matches(self):
        readme = (REPO / "README.md").read_text(encoding="utf-8")
        for row in ARTEFACTS.values():
            cells = re.search(rf"^\| `{row.name}` \|(.*)\|$", readme, re.M)
            assert cells, f"README command table lacks `{row.name}`"
            _, fast, plot, _ = (cell.strip() for cell in cells.group(1).split("|"))
            declared = dict(row.flags)
            assert (fast == "✓") == ("--fast" in declared), row.name
            assert (plot == "✓") == ("--plot" in declared), row.name

    def test_documented_invocations_still_parse(self, capsys):
        invocations = documented_invocations()
        assert len(invocations) >= 40  # the extractor itself has not rotted
        parser = build_parser()
        for doc, argv in invocations:
            try:
                parser.parse_args(argv)
            except SystemExit as exit_info:  # --help exits 0
                assert exit_info.code == 0, f"{doc}: python -m repro {shlex.join(argv)}"

    @pytest.mark.parametrize("name", ("attacks", "ablation"))
    def test_shared_entry_point_is_what_the_cli_prints(self, name, capsys, monkeypatch):
        from repro.__main__ import _resolve
        from repro.experiments import ablation

        # the two saturating throughput runs dominate `ablation`;
        # `python -m repro report` runs them for real
        monkeypatch.setattr(
            ablation,
            "run_scheme_comparison",
            lambda *, seed: ablation.SchemeComparison(110_000.0 + seed, 109_000.0),
        )
        row = ARTEFACTS[name]
        expected = _resolve(row.render)(*_resolve(row.run)(seed=3, fast=True))
        assert main([name, "--fast", "--seed", "3"]) == 0
        assert capsys.readouterr().out == expected + "\n"
