#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload solo-large --seed 1 --seconds 30 --trace 0
#
# Build outputs and the Go build cache stay under $CARGO_TARGET_DIR
# (default .bench_build) inside the checkout.
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
export PERFBENCH_OUT=${PERFBENCH_OUT:-$build/out}
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
