"""L-rules: the transport-purity layering analysis (L001–L005)."""

import functools
import ast
import textwrap
from pathlib import Path

from repro.analysis import FAMILIES, analyze
from repro.analysis.declarations import load_declarations
from repro.analysis.layers import (
    DEFAULT_MANIFEST,
    LAYERS,
    layer_of,
    pure_prefixes,
)
from repro.analysis.registry import rule_table

#: the layers family through the one kernel entry point
analyze_layers = functools.partial(analyze, families=("layers",))


def declared_layer(tree):
    return load_declarations(tree).layer

REPO_ROOT = Path(__file__).resolve().parents[2]
REPO_SRC = REPO_ROOT / "src"

#: Toy manifest: bare-stem module names, since tmp-dir files resolve to
#: their stem.
TOY = {
    "pure_mod": "pure-core",
    "adapt_mod": "adapter",
    "plat_mod": "platform",
}


def write(tmp_path: Path, name: str, source: str) -> Path:
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


class TestManifest:
    def test_longest_prefix_wins(self):
        assert layer_of("repro.guard.core.cookie", DEFAULT_MANIFEST) == "pure-core"
        assert layer_of("repro.guard.pipeline", DEFAULT_MANIFEST) == "adapter"
        assert layer_of("repro.guard.core", DEFAULT_MANIFEST) == "pure-core"
        assert layer_of("repro.netsim.link", DEFAULT_MANIFEST) == "platform"
        assert layer_of("repro.experiments.fig5", DEFAULT_MANIFEST) is None

    def test_pure_prefixes(self):
        assert pure_prefixes(DEFAULT_MANIFEST) == [
            "repro.dnswire",
            "repro.guard.core",
        ]

    def test_declared_layer_reads_literal(self):
        value = declared_layer(ast.parse('__layer__ = "pure-core"'))
        assert value == ("pure-core", 1)
        assert declared_layer(ast.parse("x = 1")) is None

    def test_class_level_declaration_is_not_the_modules(self, tmp_path):
        # a class attribute named __layer__ declares nothing: the manifest
        # root's __init__ is still undeclared (L005)
        assert declared_layer(ast.parse('class C:\n    __layer__ = "pure-core"\n')) is None
        pkg = tmp_path / "corepkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text(
            'class Marker:\n    __layer__ = "pure-core"\n', encoding="utf-8"
        )
        findings = analyze_layers([tmp_path], manifest={"corepkg": "pure-core"})
        assert [f.rule for f in findings] == ["L005"]
        assert "carries no __layer__ declaration" in findings[0].message

    def test_non_literal_declaration_reads_absent(self):
        assert declared_layer(ast.parse("__layer__ = compute()")) is None


class TestL001:
    def test_pure_importing_platform_fires(self, tmp_path):
        write(tmp_path, "pure_mod.py", "from plat_mod import Link\n")
        findings = analyze_layers([tmp_path], manifest=TOY, rule_ids=["L001"])
        assert findings and all(f.rule == "L001" for f in findings)
        assert any("plat_mod" in f.message for f in findings)

    def test_pure_importing_adapter_fires(self, tmp_path):
        write(tmp_path, "pure_mod.py", "import adapt_mod\n")
        findings = analyze_layers([tmp_path], manifest=TOY, rule_ids=["L001"])
        assert [f.rule for f in findings] == ["L001"]
        assert "adapter" in findings[0].message

    def test_pure_importing_platform_stdlib_fires(self, tmp_path):
        write(tmp_path, "pure_mod.py", "import time\nimport socket\n")
        findings = analyze_layers([tmp_path], manifest=TOY, rule_ids=["L001"])
        assert len(findings) == 2
        assert all("platform stdlib" in f.message for f in findings)

    def test_pure_importing_pure_stdlib_is_clean(self, tmp_path):
        write(
            tmp_path,
            "pure_mod.py",
            "import dataclasses\nimport hashlib\nimport struct\n",
        )
        assert analyze_layers([tmp_path], manifest=TOY, rule_ids=["L001"]) == []

    def test_adapter_importing_platform_is_clean(self, tmp_path):
        write(tmp_path, "adapt_mod.py", "from plat_mod import Link\n")
        assert analyze_layers([tmp_path], manifest=TOY, rule_ids=["L001"]) == []

    def test_type_checking_import_exempt(self, tmp_path):
        write(
            tmp_path,
            "pure_mod.py",
            """
            from typing import TYPE_CHECKING

            if TYPE_CHECKING:
                from plat_mod import Link
            """,
        )
        assert analyze_layers([tmp_path], manifest=TOY, rule_ids=["L001"]) == []

    def test_inline_allow_suppresses(self, tmp_path):
        write(
            tmp_path,
            "pure_mod.py",
            "import time  # repro: allow[L001] legacy shim\n",
        )
        assert analyze_layers([tmp_path], manifest=TOY, rule_ids=["L001"]) == []


class TestL002:
    def test_direct_transport_call_fires(self, tmp_path):
        write(
            tmp_path,
            "pure_mod.py",
            """
            def decide(node, packet):
                node.send(packet)
                return "drop"
            """,
        )
        findings = analyze_layers([tmp_path], manifest=TOY, rule_ids=["L002"])
        assert [f.rule for f in findings] == ["L002"]
        assert "send()" in findings[0].message

    def test_reach_through_helper_fires(self, tmp_path):
        write(
            tmp_path,
            "pure_mod.py",
            """
            def _emit(node, packet):
                node.schedule(0.0, packet)

            def decide(node, packet):
                _emit(node, packet)
                return "drop"
            """,
        )
        findings = analyze_layers([tmp_path], manifest=TOY, rule_ids=["L002"])
        assert len(findings) == 2  # the helper and the reacher
        assert any("through _emit" in f.message for f in findings)

    def test_pure_decision_is_clean(self, tmp_path):
        write(
            tmp_path,
            "pure_mod.py",
            """
            def decide(backlog, limit):
                return "shed" if backlog >= limit else "admit"
            """,
        )
        assert analyze_layers([tmp_path], manifest=TOY, rule_ids=["L002"]) == []

    def test_adapter_may_touch_transport(self, tmp_path):
        write(
            tmp_path,
            "adapt_mod.py",
            """
            def relay(node, packet):
                node.send(packet)
            """,
        )
        assert analyze_layers([tmp_path], manifest=TOY, rule_ids=["L002"]) == []


class TestL003:
    def test_wall_clock_call_fires(self, tmp_path):
        write(
            tmp_path,
            "pure_mod.py",
            """
            def now_stamp():
                return time.time()
            """,
        )
        findings = analyze_layers([tmp_path], manifest=TOY, rule_ids=["L003"])
        assert [f.rule for f in findings] == ["L003"]
        assert "time.time()" in findings[0].message

    def test_os_entropy_call_fires(self, tmp_path):
        write(
            tmp_path,
            "pure_mod.py",
            """
            def key():
                return secrets.token_bytes(16)
            """,
        )
        findings = analyze_layers([tmp_path], manifest=TOY, rule_ids=["L003"])
        assert [f.rule for f in findings] == ["L003"]

    def test_blocking_io_builtin_fires(self, tmp_path):
        write(
            tmp_path,
            "pure_mod.py",
            """
            def dump(state):
                print(state)
            """,
        )
        findings = analyze_layers([tmp_path], manifest=TOY, rule_ids=["L003"])
        assert [f.rule for f in findings] == ["L003"]
        assert "print()" in findings[0].message

    def test_module_level_mutable_state_fires(self, tmp_path):
        write(tmp_path, "pure_mod.py", "_CACHE = {}\n")
        findings = analyze_layers([tmp_path], manifest=TOY, rule_ids=["L003"])
        assert [f.rule for f in findings] == ["L003"]
        assert "_CACHE" in findings[0].message

    def test_dunder_declarations_exempt(self, tmp_path):
        write(
            tmp_path,
            "pure_mod.py",
            '__layer__ = "pure-core"\n__state_bounds__ = {}\n',
        )
        assert analyze_layers([tmp_path], manifest=TOY, rule_ids=["L003"]) == []

    def test_frozen_constants_clean(self, tmp_path):
        write(tmp_path, "pure_mod.py", "LIMIT = 4096\nNAMES = (1, 2)\n")
        assert analyze_layers([tmp_path], manifest=TOY, rule_ids=["L003"]) == []


class TestL004:
    def test_adapter_importing_hashlib_fires(self, tmp_path):
        write(
            tmp_path,
            "adapt_mod.py",
            """
            import hashlib

            def check(cookie, material):
                return cookie == hashlib.md5(material).digest()[:8]
            """,
        )
        findings = analyze_layers([tmp_path], manifest=TOY, rule_ids=["L004"])
        assert findings and all(f.rule == "L004" for f in findings)
        assert any("imports hashlib" in f.message for f in findings)
        assert any("digests inline" in f.message for f in findings)

    def test_pure_core_hash_use_is_clean(self, tmp_path):
        write(
            tmp_path,
            "pure_mod.py",
            """
            import hashlib

            def digest(material):
                return hashlib.md5(material).digest()
            """,
        )
        assert analyze_layers([tmp_path], manifest=TOY, rule_ids=["L004"]) == []


class TestL005:
    def test_stale_declaration_fires(self, tmp_path):
        write(tmp_path, "pure_mod.py", '__layer__ = "adapter"\n')
        findings = analyze_layers([tmp_path], manifest=TOY, rule_ids=["L005"])
        assert [f.rule for f in findings] == ["L005"]
        assert "stale declaration" in findings[0].message

    def test_declaration_outside_manifest_fires(self, tmp_path):
        write(tmp_path, "stray_mod.py", '__layer__ = "pure-core"\n')
        findings = analyze_layers([tmp_path], manifest=TOY, rule_ids=["L005"])
        assert [f.rule for f in findings] == ["L005"]
        assert "no manifest prefix" in findings[0].message

    def test_invalid_layer_value_fires(self, tmp_path):
        write(tmp_path, "pure_mod.py", '__layer__ = "kernel"\n')
        findings = analyze_layers([tmp_path], manifest=TOY, rule_ids=["L005"])
        assert [f.rule for f in findings] == ["L005"]
        assert "not one of" in findings[0].message

    def test_manifest_root_without_declaration_fires(self, tmp_path):
        write(tmp_path, "pure_mod/__init__.py", "x = 1\n")
        manifest = {"pure_mod": "pure-core"}
        findings = analyze_layers([tmp_path], manifest=manifest, rule_ids=["L005"])
        assert [f.rule for f in findings] == ["L005"]
        assert "manifest root" in findings[0].message

    def test_matching_declaration_clean(self, tmp_path):
        write(tmp_path, "pure_mod.py", '__layer__ = "pure-core"\n')
        assert analyze_layers([tmp_path], manifest=TOY, rule_ids=["L005"]) == []


class TestRegistry:
    def test_all_rules_registered(self):
        rules = FAMILIES["layers"].rules
        assert {rule.id for rule in rules} == {
            "L001", "L002", "L003", "L004", "L005", "L006"
        }
        for rule in rules:
            assert rule.family in ("layering", "layering-runtime")
            assert rule.severity == "error"
        table = rule_table(rules)
        for rule in rules:
            assert rule.id in table

    def test_layers_is_a_valid_value_set(self):
        assert set(TOY.values()) <= set(LAYERS)

    def test_unknown_rule_id_raises(self, tmp_path):
        import pytest

        with pytest.raises(KeyError):
            analyze_layers([tmp_path], rule_ids=["L999"])


class TestRepoIsClean:
    def test_repo_src_has_no_layer_findings(self):
        assert analyze_layers([REPO_SRC]) == []

    def test_repo_clean_through_cli(self):
        from repro.analysis.cli import main

        assert main(["--layers", "src"]) == 0


# -- seeded-mutation acceptance tests against repo sources --------------------


def mutate(tmp_path, relative: str, old: str, new: str) -> Path:
    """Copy one repo source file into tmp_path, preserving its
    ``src/repro/...`` layout so the default manifest applies, with
    ``old`` -> ``new``."""
    original = (REPO_SRC / relative).read_text(encoding="utf-8")
    mutated = original.replace(old, new)
    assert mutated != original, f"mutation anchor not found in {relative}"
    return write(tmp_path, str(Path("src") / relative), mutated)


class TestSeededMutations:
    def test_reimporting_netsim_into_core_fires_l001(self, tmp_path):
        mutate(
            tmp_path,
            "repro/guard/core/ratelimit.py",
            "from collections import OrderedDict",
            "from collections import OrderedDict\nfrom repro.netsim import Link",
        )
        findings = analyze_layers([tmp_path], rule_ids=["L001"])
        assert findings, "a netsim import in the pure core must fire L001"
        assert all(f.rule == "L001" for f in findings)
        assert any("repro.netsim" in f.message for f in findings)

    def test_core_touching_transport_fires_l002(self, tmp_path):
        mutate(
            tmp_path,
            "repro/guard/core/admission.py",
            "def fallback_policy(",
            "def notify_shed(node, packet):\n"
            "    node.send(packet)\n"
            "\n\n"
            "def fallback_policy(",
        )
        findings = analyze_layers([tmp_path], rule_ids=["L002"])
        assert [f.rule for f in findings] == ["L002"]
        assert "notify_shed" in findings[0].message

    def test_core_module_state_fires_l003(self, tmp_path):
        mutate(
            tmp_path,
            "repro/guard/core/local_policy.py",
            "PROBE_RETRY_INTERVAL = 0.1",
            "PROBE_RETRY_INTERVAL = 0.1\n_PROBE_LOG = []",
        )
        findings = analyze_layers([tmp_path], rule_ids=["L003"])
        assert [f.rule for f in findings] == ["L003"]
        assert "_PROBE_LOG" in findings[0].message

    def test_cookie_verify_in_adapter_fires_l004(self, tmp_path):
        mutate(
            tmp_path,
            "repro/guard/pipeline.py",
            "from .core import CookieFactory, random_key",
            "import hashlib\n"
            "from .core import CookieFactory, random_key",
        )
        findings = analyze_layers([tmp_path], rule_ids=["L004"])
        assert findings, "hashlib in the adapter must fire L004"
        assert all(f.rule == "L004" for f in findings)
        assert any("imports hashlib" in f.message for f in findings)

    def test_flipping_core_declaration_fires_l005(self, tmp_path):
        mutate(
            tmp_path,
            "repro/guard/core/__init__.py",
            '__layer__ = "pure-core"',
            '__layer__ = "adapter"',
        )
        findings = analyze_layers([tmp_path], rule_ids=["L005"])
        assert [f.rule for f in findings] == ["L005"]
        assert "stale declaration" in findings[0].message
