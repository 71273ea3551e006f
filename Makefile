PYTHON ?= python
export PYTHONPATH := src

.PHONY: check lint gate-artefacts bench-digests bench-pairs bench-budget trace-diff test sanitize report

GATE_FAMILIES := --flow --races --memory --layers

# the CI entrypoint: determinism lint + tier-1 tests
check: lint test

# the one home of the analysis gate: scripts/check.sh (CI, pre-commit) and
# `make check` both run this recipe.  SARIF_OUT=<file> keeps the SARIF.
lint:
	$(PYTHON) -m repro.analysis $(GATE_FAMILIES) --fail-on warning \
		--sarif "$${SARIF_OUT:-/dev/null}" src
	$(PYTHON) -m repro.analysis --rules-md-check README.md

# what "byte-identical analysis output" is judged on: the four artefacts a
# refactor of the analysers must not move.  Run it in the parent checkout
# and in the change with two OUT dirs; `diff -r` of the two is the verdict.
# (Exit 1 from the analyser means findings, which is data here; 2 is an error.)
gate-artefacts:
	@test -n "$(OUT)" || { echo "usage: make gate-artefacts OUT=<dir>" >&2; exit 2; }
	mkdir -p "$(OUT)"
	$(PYTHON) -m repro.analysis $(GATE_FAMILIES) --format json \
		--sarif "$(OUT)/findings.sarif" src \
		> "$(OUT)/findings.raw.json" || [ $$? -eq 1 ]
	$(PYTHON) -m repro.analysis --list-rules > "$(OUT)/list-rules.txt"
	$(PYTHON) -m repro.analysis --rules-md > "$(OUT)/rules.md"

# what "same simulation" is judged on, as gate-artefacts is for the
# analysers: `sim_digest` of the five bench workloads at seeds 0 and 7, one
# untimed run each (~40 s).  Run it in the parent checkout and in the
# change; `diff` of the two files is the verdict.
bench-digests:
	@test -n "$(OUT)" || { echo "usage: make bench-digests OUT=<file>" >&2; exit 2; }
	$(PYTHON) scripts/bench_digests.py > "$(OUT)"

# what a speed claim is judged on: alternating parent/change runs of one
# workload through `python3 -m bench` (~35 s a pair, one run at a time),
# each side's median and quartiles, pairs won, and the 9-in-10-and-beyond-
# the-parent's-IQR verdict, as a JSON row for scripts/BENCH_layers.json.
# WORKLOAD=a,b,c runs the listed workloads one after another, a row each:
# the must-not-move workloads of a claim are one command.
bench-pairs:
	@test -n "$(PARENT)" -a -n "$(WORKLOAD)" || \
		{ echo "usage: make bench-pairs PARENT=<checkout> WORKLOAD=<name>[,<name>...] [PAIRS=<n>]" >&2; exit 2; }
	$(PYTHON) scripts/bench_pairs.py --parent "$(PARENT)" --workload "$(WORKLOAD)" \
		--pairs "$(or $(PAIRS),10)"

# what a perf change's budget is counted on: one untimed run of one workload
# under a profile hook, as a JSON row — events, link packets, calls per link
# packet, calls by source file, ipaddress.py frames by calling file, enum.py
# frames.  Exact counts, so parent-vs-change is two rows side by side.
bench-budget:
	@test -n "$(WORKLOAD)" || { echo "usage: make bench-budget WORKLOAD=<name> [SEED=<n>]" >&2; exit 2; }
	$(PYTHON) scripts/bench_budget.py --workload "$(WORKLOAD)" --seed "$(or $(SEED),0)"

# which events a moved trace hash moved: $(CMD) run in both checkouts, each
# simulator's event stream aligned (scripts/trace_diff.py); exit 0 if identical
trace-diff:
	@test -n "$(PARENT)" -a -n "$(CMD)" || \
		{ echo 'usage: make trace-diff PARENT=<checkout> CMD="<command> [args...]"' >&2; exit 2; }
	$(PYTHON) scripts/trace_diff.py "$(PARENT)" $(CMD)

test:
	$(PYTHON) -m pytest -x -q

# the paper-fidelity ledger judged against one run of every artefact
# (~2 min); scripts/check.sh compares this file with a fresh run
report:
	$(PYTHON) -m repro report > REPORT.md

# dual-run trace-hash comparison of a representative experiment (slow ones
# are exercised manually: `python -m repro fig5 --fast --sanitize`)
sanitize:
	$(PYTHON) -m repro table2 --sanitize
	$(PYTHON) -m repro table2 --sanitize --seed 7
