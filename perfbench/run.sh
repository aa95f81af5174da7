#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#   bash perfbench/run.sh --workload kv-sim --seed 1 --seconds 20 --trace 0
# Run from the root of the repository. The Go build cache, the binary,
# temporary files and traces all stay under .bench_build in the checkout.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOENV=off GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
