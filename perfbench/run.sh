#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload query-hot --seed 1 --seconds 25 --trace 0
#
# The Go build cache, temporary files and the binary stay under
# .bench_build in the current directory; no module is downloaded.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/go-cache" "$build/tmp" "$build/config"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
