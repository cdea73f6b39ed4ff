#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root, for example:
#
#   bash perfbench/run.sh --workload churn --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binary, Go build cache, traced spans) goes
# under .bench_build/ in the current directory.
set -euo pipefail
out="$PWD/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOENV=off GOFLAGS= CGO_ENABLED=0
go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
