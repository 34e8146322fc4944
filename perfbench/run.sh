#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the given
# arguments (see perfbench/README.md). Run it from the root of the checkout:
#
#   bash perfbench/run.sh --workload osize-cold --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binary, temporary files and the
# benchmark's own state (cache directories, determinism records, traces).
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off

(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
