PYTHON ?= python
export PYTHONPATH := src

.PHONY: check lint test sanitize

# the CI entrypoint: determinism lint + tier-1 tests
check: lint test

# the one home of the analysis gate: scripts/check.sh (CI, pre-commit) and
# `make check` both run this recipe.  SARIF_OUT=<file> keeps the SARIF.
lint:
	$(PYTHON) -m repro.analysis --flow --races --perf --memory --layers \
		--baseline scripts/analysis_baseline.json --fail-on warning \
		--sarif "$${SARIF_OUT:-/dev/null}" src
	$(PYTHON) -m repro.analysis --rules-md-check README.md

test:
	$(PYTHON) -m pytest -x -q

# dual-run trace-hash comparison of a representative experiment (slow ones
# are exercised manually: `python -m repro fig5 --fast --sanitize`)
sanitize:
	$(PYTHON) -m repro table2 --sanitize
	$(PYTHON) -m repro table2 --sanitize --seed 7
