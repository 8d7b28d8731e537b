#!/usr/bin/env bash
# Builds perfbench from source inside the checkout and runs it:
#
#   bash perfbench/run.sh --workload serve-warm --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Every build and run artifact (the Go
# build cache, the binary, stores, span files) stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$root/.bench_build/gocache"
export GOMODCACHE="$root/.bench_build/gomodcache"
export GOPATH="$root/.bench_build/gopath"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOTELEMETRY=off
go -C "$root/perfbench" build -buildvcs=false -o "$out/perfbench" .
if [ -d "$root/.git" ]; then
	PERFBENCH_COMMIT=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
	export PERFBENCH_COMMIT
fi
exec "$out/perfbench" "$@"
