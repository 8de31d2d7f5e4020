#!/usr/bin/env bash
# CI benchmark trajectory: run the pinned subset (cmd/mbbbench -exp
# trajectory) — sequential seeded solves whose search-node counts are
# deterministic for a given code version — write the records to
# $BENCH_OUT, and gate the node counts against the newest committed
# BENCH_<n>.json: a pin spending more than 2x the baseline's search
# nodes fails the job. $BENCH_OUT defaults to BENCH_<n+1>.json, so a
# local run never overwrites the baseline it gates against. The JSON is
# written even when the gate fails so CI can archive the regressing
# trajectory.
set -euo pipefail

BUDGET="${BENCH_BUDGET:-15s}"

baseline_args=()
prev="$(git ls-files 'BENCH_*.json' | sort -V | tail -n1 || true)"
next=1
if [ -n "$prev" ]; then
    echo "bench_gate: baseline $prev" >&2
    baseline_args=(-baseline "$prev")
    n="${prev#BENCH_}"
    next=$((${n%.json} + 1))
else
    echo "bench_gate: no committed BENCH_*.json baseline; recording only" >&2
fi
OUT="${BENCH_OUT:-BENCH_$next.json}"

status=0
go run ./cmd/mbbbench -exp trajectory -json -budget "$BUDGET" \
    "${baseline_args[@]}" > "$OUT" || status=$?
echo "bench_gate: wrote $OUT ($(wc -c < "$OUT") bytes)" >&2
exit "$status"
