#!/usr/bin/env bash
# Builds perfbench from the sources of this checkout and runs it:
#   bash perfbench/run.sh --workload steady-256 --seed 1 --seconds 20 --trace 0
# Build outputs (binary and Go build cache) go to .bench_build at the root.
set -euo pipefail
cd "$(dirname "$0")"
out="$(cd .. && pwd)/.bench_build"
mkdir -p "$out"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod"
go build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
