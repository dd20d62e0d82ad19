#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the checkout root:
#   bash perfbench/run.sh --workload cold-read --seed 1 --seconds 10 --trace 0
# The binary and the Go build cache live in $CARGO_TARGET_DIR (default
# .bench_build); scratch data goes to .bench_work. Both are in .gitignore.
set -euo pipefail
cd "$(dirname "$0")/.."
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOCACHE="$out/gocache"
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
