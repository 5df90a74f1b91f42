#!/usr/bin/env bash
# Builds the benchmark and the CLIs it drives from the checkout's
# sources, then runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload sweep --seed 1 --seconds 25 --trace 0
#
# Everything the build and the runs write stays under .bench_build/.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/pimsweep || ! -d perfbench ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/ and perfbench/ are required)" >&2
	exit 2
fi

root=$(pwd)
build="$root/.bench_build"
bin="$build/bin"
mkdir -p "$bin" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local CGO_ENABLED=0

go build -o "$bin/" ./cmd/pimsweep ./cmd/pimdse ./cmd/pimserve
(cd perfbench && go build -o "$bin/perfbench" .)

exec "$bin/perfbench" -bin "$bin" -work "$build/run" "$@"
