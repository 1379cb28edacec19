#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload fm-skewed --seed 1 --seconds 15 --trace 0
#
# Run from the repository root. Every build product, Go cache and trace
# lands under .bench_build/, so the script writes nothing outside the
# checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOENV=off

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
