#!/bin/bash
# The command of BENCHMARK.json: build the harness and run it with the given
# arguments. Everything the build writes (compile cache, scratch files, the
# go command's telemetry counters, the binary) goes under .bench_build/ at the
# root of the checkout, so a run touches nothing outside it;
# `go run -C bench .` is the same program built through the user's own Go
# cache.
set -eu
cd "$(dirname "$0")"
build=$PWD/../.bench_build
mkdir -p "$build/tmp"
GOCACHE=$build/cache GOTMPDIR=$build/tmp XDG_CONFIG_HOME=$build/config go build -o "$build/bench" .
exec "$build/bench" "$@"
