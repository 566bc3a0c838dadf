#!/usr/bin/env bash
# One benchmark run: the command BENCHMARK.json names.
#
#   bash benchmarks/bench.sh --workload photo-lookup --seed 1 --seconds 10 --trace 0
#
# Builds the harness from source (a module of its own, benchmarks/go.mod,
# that replaces approxcache with the checkout it sits in) and runs it from
# the directory it was called from. Everything it writes — the binary, the
# Go build cache — lands in benchmarks/.build/, so a run touches nothing
# outside the benchmark's own directory. Build output goes to standard
# error; the harness prints the result object as the last line of standard
# output.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$here/.build"
mkdir -p "$build"

export GOCACHE="$build/gocache" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
go build -C "$here" -o "$build/e2e" ./e2e >&2

exec "$build/e2e" "$@"
