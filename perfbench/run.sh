#!/usr/bin/env bash
# Builds the benchmark from the checkout that contains this script and
# runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload tall --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and every temporary file go under
# .bench_build at the checkout root, so a run reads and writes nothing
# outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off GOENV=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" "$@"
