#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash bench/run.sh --workload serve-cold --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go caches, the binary, the
# replay trace) lands under .bench_build/ in the current directory.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off

go -C "$root/bench" build -o "$out/rnuca-bench" .
exec "$out/rnuca-bench" "$@"
