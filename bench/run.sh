#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the load generator from
# source and runs it from the repository root. Everything the Go
# toolchain writes (build cache, temp files, telemetry counters, binaries)
# stays inside the checkout under .bench_build/.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp XDG_CONFIG_HOME=$build/config GOTOOLCHAIN=local
cd "$root"
go build -C bench -o "$build/proqlload" .
exec "$build/proqlload" "$@"
