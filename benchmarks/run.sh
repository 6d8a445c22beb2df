#!/usr/bin/env bash
# Builds the e2e driver from source and runs it with the arguments given:
#   bash benchmarks/run.sh --workload clinic-mixed --seed 42 --seconds 15 --trace 0
# Everything the build and the run write stays inside the checkout: the
# binary and the Go build cache under .bench_build, traces and result sets
# under benchmarks/out.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
# The toolchain's cache, temporary files and telemetry counters go there too.
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
go build -o "$build/e2e" ./benchmarks/e2e
exec "$build/e2e" "$@"
