#!/usr/bin/env bash
# CI / pre-commit entrypoint: determinism lint, tier-1 tests, and a quick
# runtime-sanitizer pass over a representative experiment.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== static analysis (lint + taint dataflow + races + memory + layering) + README rule table drift check =="
# the gate command lives in the Makefile; SARIF_OUT passes through the environment
make --no-print-directory lint

echo "== tier-1 tests =="
python -m pytest -x -q

echo "== benchmark smoke =="
# bench/ is outside tier-1 but imports the src/ surface it measures
# (Hook, Verdict, node.filters, Cpu, and the three code objects its traced
# run counts: Simulator.step, Simulator.schedule_at, EventHandle.cancel):
# a rename should fail here, not as failed operations in the benchmark driver
python -m pytest bench/tests -q

echo "== paper fidelity (every ledger artefact once; REPORT.md is the stdout) =="
# exit 1 on a failed ledger row; cmp fails when the committed file is stale
# (`make report` regenerates it)
python -m repro report | cmp - REPORT.md

echo "== determinism sanitizer (table2, two seeds) =="
python -m repro table2 --sanitize
python -m repro table2 --sanitize --seed 7

echo "== trace differ smoke (this tree against itself: one identical line) =="
make --no-print-directory trace-diff PARENT=. CMD="table2 --seed 7"

echo "== fault-injection smoke (faults, sanitized) =="
python -m repro faults --fast --sanitize

echo "== simultaneity races (tie-group interference monitor) =="
python -m repro table2 --races
python -m repro faults --fast --races
python -m repro table1 --races

echo "== adaptive-control smoke (sanitized, with and without the controller) =="
python -m repro control --fast --static-only --sanitize
python -m repro control --fast --sanitize
python -m repro control --fast --races

echo "== farm smoke (serial-vs-sharded digest equivalence + resume) =="
farm_dir=$(mktemp -d)
obs_dir=$(mktemp -d)
trap 'rm -rf "$farm_dir" "$obs_dir"' EXIT
python -m repro farm --matrix smoke --fast --manifest "$farm_dir/serial.json" > /dev/null
python -m repro farm --matrix smoke --fast --shards 2 --manifest "$farm_dir/sharded.json" > /dev/null
digest_serial=$(python -c "import json,sys; print(json.load(open(sys.argv[1]))['digest'])" "$farm_dir/serial.json")
digest_sharded=$(python -c "import json,sys; print(json.load(open(sys.argv[1]))['digest'])" "$farm_dir/sharded.json")
if [ "$digest_serial" != "$digest_sharded" ]; then
    echo "farm sharding changed the manifest digest:" >&2
    echo "  serial : $digest_serial" >&2
    echo "  sharded: $digest_sharded" >&2
    exit 1
fi
# resume after a simulated kill: run 2 of 4 cells, then finish sharded
python -m repro farm --matrix smoke --fast --stop-after 2 --manifest "$farm_dir/resumed.json" > /dev/null
python -m repro farm --matrix smoke --fast --shards 2 --manifest "$farm_dir/resumed.json" --resume > /dev/null
digest_resumed=$(python -c "import json,sys; print(json.load(open(sys.argv[1]))['digest'])" "$farm_dir/resumed.json")
if [ "$digest_serial" != "$digest_resumed" ]; then
    echo "farm resume diverged from the serial digest:" >&2
    echo "  serial : $digest_serial" >&2
    echo "  resumed: $digest_resumed" >&2
    exit 1
fi
echo "manifest digest $digest_serial (sharded + resumed runs identical)"

echo "== observability smoke (obs showcase + obs-on/off trace parity) =="
python -m repro obs --fast > /dev/null
trace_off=$(python -m repro table2 --sanitize | tail -n 1)
trace_on=$(python -m repro table2 --sanitize --obs "$obs_dir" | tail -n 1)
if [ "$trace_off" != "$trace_on" ]; then
    echo "observability changed the event trace:" >&2
    echo "  off: $trace_off" >&2
    echo "  on:  $trace_on" >&2
    exit 1
fi
echo "$trace_on (identical with observability on)"

echo "all checks passed"
