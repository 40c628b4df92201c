#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it from the
# checkout root; every argument is passed through, e.g.
#   bash perfbench/run.sh --workload read-hot --seed 1 --seconds 10 --trace 0
# Build output, the Go build cache, WAL directories and span dumps all stay
# under .bench_build/ inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
export GOCACHE="$out/gocache" GOPATH="$out/gopath"
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
