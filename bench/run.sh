#!/bin/sh
# Builds the benchmark and runs it with the given flags. Run it from the
# repository root:
#
#   sh bench/run.sh --workload spark-cold --seed 1 --seconds 15 --trace 0
#   sh bench/run.sh -seed 1 -out result.json
#
# The binary, the Go build cache and every scratch file live under
# .bench_build/ in the current directory, so nothing is written outside
# the checkout. The build needs the repository's own sources next to
# bench/ (bench/go.mod replaces the repro module with ..), so it fails
# when they are missing.
set -eu
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomodcache"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOENV=off
go -C bench build -o "$out/bench" .
exec "$out/bench" "$@"
