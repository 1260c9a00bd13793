#!/usr/bin/env bash
# Builds the simd daemon and the benchmark from this checkout, then runs
# the benchmark with the given arguments. Run it from the repository root:
#
#   bash benchmark/run.sh --workload serve-hot --seed 1 --seconds 10 --trace 0
#   bash benchmark/run.sh -seed 1 -out bench-out          # all four workloads
#   bash benchmark/run.sh -compare parent-runs/ change-runs/
#
# Everything the build and the runs write stays under .bench_build/ in the
# checkout, including the Go build cache.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go build -o "$build/simd" ./cmd/simd
(cd benchmark && go build -o "$build/benchmark" .)
exec "$build/benchmark" -simd "$build/simd" -out "$build/out" "$@"
