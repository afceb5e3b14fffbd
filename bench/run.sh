#!/usr/bin/env bash
# Builds the benchmark driver from source and runs it with the given
# arguments. Everything the toolchain writes (build cache, temp files,
# the binary) stays under .bench_build/ in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
out=$PWD/.bench_build
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp
export GOENV=off GOWORK=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local
# XDG_CONFIG_HOME keeps the toolchain's telemetry counters in the checkout.
XDG_CONFIG_HOME=$out/config go build -C bench -o "$out/hsdbench" .
exec "$out/hsdbench" "$@"
