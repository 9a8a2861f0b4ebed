#!/usr/bin/env bash
# Builds the FUDJ end-to-end benchmark from the source tree it sits in
# and runs it. Run from anywhere; arguments go to the benchmark:
#
#   bash perfbench/run.sh --workload spatial-inmem --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write (Go build cache, the binary,
# spill files, Chrome traces) stays under $CARGO_TARGET_DIR, by default
# .bench_build at the root of the tree.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/gocache" "$build/gomodcache" "$build/tmp"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off

(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" --trace-dir "$build/trace" "$@"
