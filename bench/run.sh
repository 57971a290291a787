#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root, so
# bench/out lands in the checkout. Everything the build writes (Go build
# cache, temporary files, the binary) stays under .bench_build/ in the
# checkout; nothing is fetched.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build=$root/.bench_build
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp
export GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off CGO_ENABLED=0
go build -C "$root/bench" -buildvcs=false -o "$build/thermobench" .
cd "$root"
exec "$build/thermobench" "$@"
