#!/usr/bin/env bash
# run.sh — build the benchmark from source and run it.
#
# Run from anywhere inside the repository; flags pass through to the
# benchmark program (see bench/README.md):
#
#   bash bench/run.sh                 # untraced pass: 4 workloads, 10 interleaved rounds
#   bash bench/run.sh -trace          # traced pass: per-layer metrics
#   bash bench/run.sh -smoke          # 1 round, 2 runs per workload, both passes
#   bash bench/run.sh --workload weather-p64 --seed 7 --seconds 20 --trace 0
#
# Everything the build and the runs write — the binary, the Go build cache,
# CPU profiles and result files — stays under .bench_build/ at the
# repository root, so a run touches nothing outside its checkout.
set -euo pipefail

cd "$(dirname "$0")/.."
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config" "$out/cache"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export PPROF_TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export XDG_CACHE_HOME="$out/cache"
export GOENV=off
export GOWORK=off
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-buildvcs=false

go -C bench build -o "$out/bench" .
exec "$out/bench" -workdir "$out" "$@"
