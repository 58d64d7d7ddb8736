#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it from the
# checkout root. Build cache, temporary files and the binary stay under
# .bench_build/.
#   bash perfbench/run.sh --workload ledger-saturate --seed 1 --seconds 12 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
out="$root/.bench_build/perfbench"
# The go command's cache, temporary files, module path and its config
# directory (where it keeps telemetry counters) all stay in the checkout.
export GOCACHE="$root/.bench_build/gocache" GOTMPDIR="$root/.bench_build/tmp"
export GOPATH="$root/.bench_build/gopath" XDG_CONFIG_HOME="$root/.bench_build/config"
export GOTOOLCHAIN=local GOPROXY=off
mkdir -p "$out" "$GOTMPDIR"
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
