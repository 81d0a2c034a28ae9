#!/usr/bin/env bash
# Builds keplerd and the benchmark from source into .bench_build/ at the
# checkout root (Go build cache included, so nothing is written outside the
# checkout), then runs the benchmark with the arguments given. Build time
# is handed to the benchmark to print as build_s; it is never part of
# setup_s.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOPROXY=off
t0=$(date +%s%N)
(cd "$root" && go build -o "$build/keplerd" ./cmd/keplerd)
(cd "$root/bench" && go build -o "$build/keplerbench" .)
build_ms=$(( ($(date +%s%N) - t0) / 1000000 ))
exec "$build/keplerbench" -root "$root" -build-ms "$build_ms" "$@"
