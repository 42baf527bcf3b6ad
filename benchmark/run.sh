#!/usr/bin/env bash
# Builds the benchmark from source inside the current checkout and runs
# it; every build and run artifact stays under .bench_build/.
#
#   bash benchmark/run.sh --workload plain --seed 1 --seconds 25 --trace 0
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd benchmark && go build -o "$out/asbr-benchmark" .)
exec "$out/asbr-benchmark" -spans "$out/spans.json" "$@"
