"""T-rules: taint tracking through calls, branches, and sanitizers."""

import functools
import textwrap
from pathlib import Path

import pytest

from repro.analysis import SuppressionTracker, analyze

#: the flow family through the one kernel entry point
analyze_paths = functools.partial(analyze, families=("flow",))

REPO_SRC = Path(__file__).resolve().parents[2] / "src"


def write(tmp_path: Path, name: str, source: str, prelude: str = "") -> Path:
    path = tmp_path / name
    path.write_text(prelude + textwrap.dedent(source), encoding="utf-8")
    return path


TRUST = """\
__trust_boundary__ = {
    "scheme": "toy",
    "entry_points": ["Guard.handle"],
    "taint_params": ["packet"],
    "sanitizers": ["verify"],
    "sinks": ["send"],
}
"""


class TestT001:
    def test_unsanitized_sink_fires(self, tmp_path):
        write(
            tmp_path,
            "mod.py",
            """
            class Guard:
                def handle(self, packet):
                    self.send(packet)
            """,
            prelude=TRUST,
        )
        findings = analyze_paths([tmp_path])
        assert [f.rule for f in findings] == ["T001"]
        assert "data-dependent" in findings[0].message

    def test_sanitizer_branch_kills_taint(self, tmp_path):
        write(
            tmp_path,
            "mod.py",
            """
            class Guard:
                def handle(self, packet):
                    if self.verify(packet):
                        self.send(packet)
            """,
            prelude=TRUST,
        )
        assert analyze_paths([tmp_path]) == []

    def test_early_return_guard_idiom(self, tmp_path):
        write(
            tmp_path,
            "mod.py",
            """
            class Guard:
                def handle(self, packet):
                    if not self.verify(packet):
                        return
                    self.send(packet)
            """,
            prelude=TRUST,
        )
        assert analyze_paths([tmp_path]) == []

    def test_control_dependence_is_tainted(self, tmp_path):
        write(
            tmp_path,
            "mod.py",
            """
            OK = object()

            class Guard:
                def handle(self, packet):
                    if packet.flags:
                        self.send(OK)
            """,
            prelude=TRUST,
        )
        findings = analyze_paths([tmp_path])
        assert [f.rule for f in findings] == ["T001"]
        assert "control-dependent" in findings[0].message

    def test_taint_through_cross_module_call_summary(self, tmp_path):
        write(
            tmp_path,
            "helpers.py",
            """
            __trust_boundary__ = {"scheme": "toy", "sinks": ["send"]}

            def relay(node, value):
                node.send(value)
            """,
        )
        write(
            tmp_path,
            "entry.py",
            """
            from helpers import relay

            class Guard:
                def handle(self, packet):
                    relay(self, packet)
            """,
            prelude=TRUST,
        )
        findings = analyze_paths([tmp_path])
        assert [f.rule for f in findings] == ["T001"]
        assert "via call summary" in findings[0].message
        assert findings[0].path.endswith("entry.py")

    def test_callback_sink_idiom(self, tmp_path):
        write(
            tmp_path,
            "mod.py",
            """
            class Guard:
                def handle(self, packet):
                    self.submit(1.0, self.send, packet)
            """,
            prelude=TRUST,
        )
        assert [f.rule for f in analyze_paths([tmp_path])] == ["T001"]

    def test_inline_suppression_filters_and_is_marked_used(self, tmp_path):
        write(
            tmp_path,
            "mod.py",
            """
            class Guard:
                def handle(self, packet):
                    self.send(packet)  # repro: allow[T001] by design
            """,
            prelude=TRUST,
        )
        tracker = SuppressionTracker()
        assert analyze_paths([tmp_path], tracker=tracker) == []
        assert tracker.unused_findings({"T001"}) == []


class TestT002:
    def test_secret_reaching_print_fires(self, tmp_path):
        write(
            tmp_path,
            "mod.py",
            """
            class Factory:
                def debug(self):
                    print(self._current_key)
            """,
        )
        findings = analyze_paths([tmp_path])
        assert [f.rule for f in findings] == ["T002"]

    def test_declassified_digest_is_clean(self, tmp_path):
        write(
            tmp_path,
            "mod.py",
            """
            import hashlib

            class Factory:
                def cookie(self, ip):
                    return hashlib.md5(ip + self._current_key).digest()

                def debug(self, ip):
                    print(self.cookie(ip))
            """,
        )
        assert analyze_paths([tmp_path]) == []

    def test_secret_in_repr_fires(self, tmp_path):
        write(
            tmp_path,
            "mod.py",
            """
            class Factory:
                def __repr__(self):
                    return "Factory(%r)" % (self._current_key,)
            """,
        )
        assert [f.rule for f in analyze_paths([tmp_path])] == ["T002"]


class TestAcceptanceMutations:
    """The seeded-mutation proof: deleting the verification is detected."""

    def test_repo_src_is_clean(self):
        assert analyze_paths([REPO_SRC]) == []

    def test_removing_cookie_verify_fires_t001(self, tmp_path):
        original = (REPO_SRC / "repro" / "guard" / "pipeline.py").read_text(
            encoding="utf-8"
        )
        mutated = original.replace(
            "if self.cookies.verify(cookie, src):", "if True:"
        )
        assert mutated != original
        write(tmp_path, "pipeline.py", mutated)
        findings = analyze_paths([tmp_path], rule_ids=["T001"])
        assert findings, "deleting the cookie verify must fire T001"
        assert all(f.rule == "T001" for f in findings)
        assert any("_strip_and_forward" in f.message for f in findings)


class TestRepoTrustDeclarations:
    def test_guard_modules_declare_boundaries(self):
        import ast

        from repro.analysis.declarations import DEFAULT_TRUST, load_declarations

        for name in (
            "pipeline.py",
            "tcp_scheme.py",
            "local_guard.py",
            "core/dns_scheme.py",
            "rfc7873.py",
            "core/cookie.py",
            "core/edns_cookie.py",
        ):
            path = REPO_SRC / "repro" / "guard" / name
            trust = load_declarations(ast.parse(path.read_text(encoding="utf-8"))).trust
            assert trust is not DEFAULT_TRUST, f"{name} must declare __trust_boundary__"
            assert trust.scheme, name

    def test_declared_lists_extend_defaults_not_mask(self):
        import ast

        from repro.analysis.declarations import DEFAULT_TRUST, load_declarations

        tree = ast.parse('__trust_boundary__ = {"secret_attrs": []}')
        trust = load_declarations(tree).trust
        assert trust.secret_attrs >= DEFAULT_TRUST.secret_attrs


@pytest.mark.parametrize("rule", ["T001", "T002"])
def test_rule_selection_is_honoured(tmp_path, rule):
    write(
        tmp_path,
        "mod.py",
        """
        class Guard:
            def handle(self, packet):
                self.send(packet)

            def leak(self):
                print(self._current_key)
        """,
        prelude=TRUST,
    )
    findings = analyze_paths([tmp_path], rule_ids=[rule])
    assert {f.rule for f in findings} == {rule}
