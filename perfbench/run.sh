#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it with the
# arguments given. From the repository root:
#
#   bash perfbench/run.sh --workload sort-events --seed 1 --seconds 5 --trace 0
#
# The binary, the Go build and module caches, the runs' temporary stores
# and traced runs' span files all stay under $CARGO_TARGET_DIR (default
# .bench_build) in the current directory. A failed build exits non-zero
# without output on standard output.
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build/tmp" "$build/spans"
build="$(cd "$build" && pwd)"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -o "$build/perfbench" ./perfbench
exec "$build/perfbench" --tmp "$build/tmp" --spans-dir "$build/spans" "$@"
