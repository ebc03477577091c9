#!/usr/bin/env bash
# Builds the benchmark from the tree it sits in and runs it with the given
# arguments. Run from the repository root:
#
#   bash benchmark/run.sh --workload fp-solve --seed 1 --seconds 30 --trace 0
#
# The build, the Go build cache and the build's temporary files stay in
# .bench_build under the root.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOENV=off
(cd "$root/benchmark" && go build -o "$out/benchmark" .)
exec "$out/benchmark" "$@"
