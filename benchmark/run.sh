#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it with the
# given arguments. Run from the root of a checkout:
#
#   bash benchmark/run.sh --workload select --seed 1 --seconds 20 --trace 0
#   bash benchmark/run.sh compare --parent DIR --change DIR
#
# Every build product, cache and trace file stays under .bench_build/ in the
# checkout. The build needs no module outside the checkout (GOPROXY=off).
# Without the repository's go.mod beside benchmark/, the build fails and so
# does this script.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off
go -C "$root/benchmark" build -o "$out/peerbench" .
exec "$out/peerbench" "$@"
