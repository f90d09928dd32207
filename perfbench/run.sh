#!/usr/bin/env bash
# Builds the pipeline benchmark from this checkout's sources and runs it with
# the given arguments, e.g.
#
#   bash perfbench/run.sh --workload serve-scan --seed 3 --seconds 16 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and
# trace dumps stay under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"
export CARGO_TARGET_DIR=$out
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
