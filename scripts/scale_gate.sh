#!/bin/sh
# Scaling gate (called by scripts/check.sh and CI): the sparse region-grain
# page table must stay honest without running the full 1 GB -> 1 TB sweep
# (that lives in `repro -exp scale`, pinned under results/BENCH_scale.json).
# The short-mode smoke asserts:
#  1. sublinearity: growing the footprint 1 GB -> 16 GB shrinks sparse
#     state bytes per simulated GB, and sparse state undercuts dense
#     (TestScaleStateShrinks);
#  2. the sweep cell still benchmarks (one BenchmarkScalePoint iteration).
set -eu

cd "$(dirname "$0")/.."

echo "== scale: sublinearity test"
go test -count=1 -run 'TestScaleStateShrinks' -short ./internal/harness

echo "== scale: bench compile smoke"
go test -run=NONE -bench 'BenchmarkScalePoint' -benchtime=1x ./internal/harness

echo "scale: sparse state sublinear in footprint"
