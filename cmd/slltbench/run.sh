#!/usr/bin/env bash
# Builds cmd/slltbench from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash cmd/slltbench/run.sh --workload paper6 --seed 1 --seconds 15 --trace 0
#
# The build cache, the binary and every temporary file the benchmark writes
# stay under .bench_build in the working directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off

go -C cmd/slltbench build -o "$build/slltbench" .
exec "$build/slltbench" "$@"
