#!/usr/bin/env bash
# Builds the benchmark and fpvm-serve from source into .bench_build and runs
# one workload. Run from the repository root:
#
#   bash benchmark/run.sh --workload fig12_mpfr --seed 1 --seconds 10 --trace 0
#
# Every build product and Go cache stays inside .bench_build.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOENV=off GOFLAGS=

go build -o "$out/fpvm-serve" ./cmd/fpvm-serve
go build -C benchmark -o "$out/fpvm-benchmark" .
exec "$out/fpvm-benchmark" "$@"
