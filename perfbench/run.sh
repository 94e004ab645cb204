#!/usr/bin/env bash
# Builds the profiling-cost benchmark from the checkout's sources and
# runs it. Run from the root of the repository:
#
#   bash perfbench/run.sh --workload luhp --seed 1 --seconds 20 --trace 0
#
# Every build product, cache and scratch file stays under .bench_build
# in the current directory. The last line of standard output is the
# result object; see main.go for its metrics.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/gotmp"
export GOPATH="$build/gopath"
export GOTOOLCHAIN=local
export GOENV=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
