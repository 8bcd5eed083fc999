#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash bench/run.sh --workload kernel-fdp --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR, default .bench_build): the Go build cache, the binary
# and the service workload's state.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/go-build" "$build/tmp" "$build/work"

# XDG_CONFIG_HOME keeps the go command's telemetry counters in here too.
export GOCACHE=$build/go-build GOTMPDIR=$build/tmp GOPATH=$build/gopath XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off GOPROXY=off

(cd bench && go build -o "$build/bench" .)
exec "$build/bench" -workdir "$build/work" "$@"
