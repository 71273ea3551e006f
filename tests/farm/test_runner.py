"""Runner contract: serial/sharded equivalence, resume, crash isolation.

Multi-process assertions use the built-in ``selftest`` matrix — instant
synthetic cells registered in :mod:`repro.farm.matrices` so they exist in
spawned workers too (matrices registered inside a test process don't).
"""

import pytest

from repro.farm import (
    Cell,
    MatrixDef,
    get_matrix,
    matrix_names,
    register_matrix,
    run_farm,
)
from repro.farm.matrices import MATRICES, SELFTEST_BEHAVIOURS
from repro.farm.planner import expand


class TestRegistry:
    def test_builtin_matrices_registered(self):
        assert {"faults", "smoke", "selftest"} <= set(matrix_names())

    def test_unknown_matrix_names_known_ones(self):
        with pytest.raises(ValueError, match="faults"):
            get_matrix("no-such-matrix")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            register_matrix(MATRICES["selftest"])


class TestSerial:
    def test_crash_isolated_to_its_cell(self):
        """The `boom` cell fails; every other cell still completes."""
        result = run_farm("selftest", seed=0)
        assert result.failed == ["selftest/behaviour=boom"]
        done = result.manifest.done_cells()
        assert done == {
            f"selftest/behaviour={b}" for b in SELFTEST_BEHAVIOURS if b != "boom"
        }
        assert not result.complete
        assert result.reduced is None  # reduce waits for a complete plan
        record = result.manifest.records["selftest/behaviour=boom"]
        assert "crashed on purpose" in record.error

    def test_digest_stable_across_runs(self):
        a = run_farm("selftest", seed=0)
        b = run_farm("selftest", seed=0)
        assert a.manifest.digest() == b.manifest.digest()
        assert run_farm("selftest", seed=1).manifest.digest() != a.manifest.digest()

    def test_cell_results_use_derived_seeds(self):
        result = run_farm("selftest", seed=0)
        for cell in result.cells:
            record = result.manifest.records[cell.cell_id]
            if record.status == "done":
                assert record.result["value"] == cell.seed % 9973

    def test_shards_must_be_positive(self):
        with pytest.raises(ValueError, match="shards"):
            run_farm("selftest", shards=0)


class TestSharded:
    def test_sharded_digest_equals_serial(self):
        serial = run_farm("selftest", seed=3)
        sharded = run_farm("selftest", seed=3, shards=2)
        assert sharded.manifest.digest() == serial.manifest.digest()
        assert sharded.failed == ["selftest/behaviour=boom"]

    def test_timeout_kills_cell_not_run(self, monkeypatch, tmp_path):
        """A hung cell is killed at --cell-timeout; its worker is replaced
        and every other cell still completes."""
        monkeypatch.setenv("REPRO_FARM_SELFTEST_HANG", "1")
        result = run_farm(
            "selftest",
            seed=0,
            shards=2,
            cell_timeout=3.0,
            manifest_path=str(tmp_path / "m.json"),
        )
        assert result.manifest.status_of("selftest/behaviour=hang") == "timeout"
        assert result.manifest.done_cells() == {
            f"selftest/behaviour={b}" for b in SELFTEST_BEHAVIOURS if b != "boom"
        }


class TestResume:
    def test_stop_after_then_resume_completes(self, tmp_path):
        path = str(tmp_path / "manifest.json")
        partial = run_farm("selftest", seed=0, manifest_path=path, stop_after=2)
        assert partial.ran == 2 and not partial.complete

        resumed = run_farm("selftest", seed=0, manifest_path=path, resume=True)
        assert resumed.skipped == 2
        assert resumed.ran == len(resumed.cells) - 2
        assert resumed.manifest.digest() == run_farm("selftest", seed=0).manifest.digest()

    def test_resume_reattempts_failed_cells(self, tmp_path):
        path = str(tmp_path / "manifest.json")
        run_farm("selftest", seed=0, manifest_path=path)
        resumed = run_farm("selftest", seed=0, manifest_path=path, resume=True)
        # done cells skipped; only the failing cell is re-attempted
        assert resumed.ran == 1
        assert resumed.failed == ["selftest/behaviour=boom"]

    def test_resume_requires_matching_plan(self, tmp_path):
        path = str(tmp_path / "manifest.json")
        run_farm("selftest", seed=0, manifest_path=path, stop_after=1)
        with pytest.raises(ValueError, match="does not match"):
            run_farm("selftest", seed=1, manifest_path=path, resume=True)

    def test_resume_requires_manifest_path(self):
        with pytest.raises(ValueError, match="manifest"):
            run_farm("selftest", seed=0, resume=True)


class TestReduceOrdering:
    def test_reduce_sees_canonical_order(self):
        """Results are merged in plan order regardless of completion order."""
        seen = {}

        def plan(seed, fast):
            return expand("order-probe", [("x", ("b", "a", "c"))], base_seed=seed, fast=fast)

        def run_cell(params, seed, fast):
            return {"x": params["x"]}

        def reduce(cells, results):
            seen["order"] = [r["x"] for r in results]
            return results

        register_matrix(
            MatrixDef(
                name="order-probe",
                description="test-only",
                plan=plan,
                run_cell=run_cell,
                reduce=reduce,
                render=lambda reduced: "",
            )
        )
        try:
            result = run_farm("order-probe", seed=0)
            assert result.complete
            assert seen["order"] == ["b", "a", "c"]  # declaration order, not sorted
        finally:
            MATRICES.pop("order-probe", None)


class TestFaultsMatrixEquivalence:
    """The ISSUE's headline gate at test scale: the faults planner cells
    run identically solo and sharded (full-matrix equivalence is the
    check.sh smoke)."""

    def test_smoke_matrix_sharded_equals_serial(self):
        serial = run_farm("smoke", seed=0, fast=True)
        sharded = run_farm("smoke", seed=0, fast=True, shards=2)
        assert serial.complete and sharded.complete
        assert sharded.manifest.digest() == serial.manifest.digest()
        for cell in serial.cells:
            a = serial.manifest.records[cell.cell_id]
            b = sharded.manifest.records[cell.cell_id]
            assert a.result == b.result
            assert a.trace_hash == b.trace_hash
