#!/usr/bin/env bash
# Builds the benchmark program and pstld from this source tree, then runs one
# benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload svc-local --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binaries, job-log
# temp dirs) stays under .bench_build/ in the current directory.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/pstld || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (needs go.mod, cmd/pstld and perfbench/)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/bin"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

go build -o "$build/bin/pstld" ./cmd/pstld
(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" --pstld "$build/bin/pstld" --work "$build" "$@"
