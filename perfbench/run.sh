#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs one workload.
# Run it from the repository root:
#
#   bash perfbench/run.sh --workload kv-open-a --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build in the
# current directory: the Go build cache, temporary files, the binary and
# the spans of a traced run.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod" \
	GOPATH="$build/gopath" HOME="$build/home" XDG_CONFIG_HOME="$build/home" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" -trace-dir "$build/trace" "$@"
