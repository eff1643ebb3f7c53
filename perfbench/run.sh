#!/bin/sh
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload serve-4k --seed 1 --seconds 25 --trace 0
#
# Every build product and the Go build cache stay under .bench_build, so the
# benchmark reads and writes nothing outside the checkout.
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off GOPROXY=off
go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
