#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it; every
# argument passes through to the program (see README.md beside this file).
# Nothing is read or written outside the checkout: the Go build cache, the
# go command's own state and the binary all live under .bench_build/.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
if [ ! -f go.mod ]; then
	echo "benchmark: no go.mod beside BENCHMARK.json: the program to measure is not in this checkout" >&2
	exit 1
fi
build="$PWD/.bench_build"
# Telemetry off in the go command's (checkout-local) configuration: with a
# fresh configuration directory it would otherwise start a detached
# `go` child to collect counters, which outlives this script.
mkdir -p "$build/config/go/telemetry"
echo off >"$build/config/go/telemetry/mode"
GOCACHE="$build/gocache" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local \
	go build -o "$build/pcpdabench" ./benchmark
exec "$build/pcpdabench" "$@"
