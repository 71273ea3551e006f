"""L006: the runtime import-isolation verifier for the pure core."""

import ast
import pathlib

import repro.guard.core
from repro.analysis.layers import (
    BLOCKED_PREFIXES,
    verify_import_isolation,
)


class TestImportIsolation:
    def test_pure_core_imports_with_platform_blocked(self):
        report = verify_import_isolation()
        assert report.ok, report.summary
        assert report.findings == []
        assert "repro.guard.core" in report.summary
        assert "repro.dnswire" in report.summary

    def test_adapter_target_is_refused(self):
        # The pipeline adapter imports repro.netsim — the blocker must
        # refuse it, proving the verifier actually enforces something.
        report = verify_import_isolation(targets=["repro.guard.pipeline"])
        assert not report.ok
        assert len(report.findings) == 1
        finding = report.findings[0]
        assert finding.rule == "L006"
        assert "repro.guard.pipeline" in finding.message
        assert "blocked by the layering verifier" in finding.message

    def test_empty_manifest_is_trivially_ok(self):
        report = verify_import_isolation(manifest={"repro.guard": "adapter"})
        assert report.ok
        assert report.findings == []
        assert "no pure-core packages" in report.summary

    def test_blocklist_covers_the_platform(self):
        for prefix in ("repro.netsim", "repro.obs", "asyncio", "socket",
                       "threading", "time", "random", "secrets"):
            assert prefix in BLOCKED_PREFIXES
        assert "os" not in BLOCKED_PREFIXES  # interpreter machinery needs it


def test_guard_core_sources_never_import_ipaddress():
    """The core takes addresses as 32-bit integers; ``ipaddress`` stays in
    the adapters (``repro.dnswire`` still builds A records with it, so the
    blocked-import verifier cannot check this one)."""
    core = pathlib.Path(repro.guard.core.__file__).parent
    for path in sorted(core.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                assert all(alias.name != "ipaddress" for alias in node.names), path.name
            elif isinstance(node, ast.ImportFrom):
                assert node.module != "ipaddress", path.name
