#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and
# runs it with the arguments given: what BENCHMARK.json's command names.
# Everything the build leaves behind, the Go build cache included, goes
# under .bench_build/ in the checkout, so a run reads and writes nothing
# outside it. The first build in a fresh checkout compiles the standard
# library too (about a minute on two cores); later ones take a second.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ]; then
	echo "bench/run.sh: no go.mod beside bench/: the benchmark builds against the repository around it" >&2
	exit 2
fi
build="$PWD/.bench_build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -C bench -o "$build/bench" .
exec "$build/bench" "$@"
