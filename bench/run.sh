#!/usr/bin/env bash
# Builds the benchmark from the source of the checkout it is run from,
# then runs it with the given arguments:
#
#   bash bench/run.sh --workload find_flat --seed 1 --seconds 25 --trace 0
#   bash bench/run.sh compare <dirA> <dirB>
#
# Run it from the repository root. The binary, the Go build cache, the
# build's temporary files and everything a run writes stay under
# .bench_build/ in that directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=
go -C "$root/bench" build -o "$out/tfbench" .
exec "$out/tfbench" "$@"
