#!/usr/bin/env bash
# Driver entry point (BENCHMARK.json "command"): builds the benchmark from
# the checkout's sources into .bench_build and runs it with the arguments
# given. Everything the build writes — compiler cache, temporaries, the
# binary — stays inside the checkout, and no toolchain or module download is
# attempted.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOENV=off GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/rapid-benchmark" ./benchmark
exec "$build/rapid-benchmark" "$@"
