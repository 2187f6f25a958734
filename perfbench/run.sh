#!/usr/bin/env bash
# Builds the benchmark program from the checkout it is run in and runs
# it with the given flags. Run it from the repository root:
#
#   bash perfbench/run.sh --workload fork --seed 1 --seconds 24 --trace 0
#
# Build outputs, the Go build cache and the cluster workload's temporary
# directories all live under .bench_build/ in the repository root, so a
# run reads and writes nothing outside the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (need go.mod, internal/ and perfbench/)" >&2
	exit 2
fi

build="$(pwd)/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOTOOLCHAIN=local GOFLAGS=
go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" -workdir "$build/tmp" "$@"
