#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#	bash bench/run.sh --workload dense --seed 1 --seconds 20 --trace 0
#	bash bench/run.sh compare bench/results/A.jsonl bench/results/B.jsonl
#
# Everything the build and the run write (Go build cache, temporary
# files, the binary, daemon data directories) stays under .bench_build/
# in the current directory.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off

(cd bench && go build -o "$out/mbbbench" .)
exec "$out/mbbbench" "$@"
