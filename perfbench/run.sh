#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and executes it; every
# argument passes through (see main.go for the flags). Run it from the root of
# the checkout: bash perfbench/run.sh --workload torus16-load0.5 --seed 1
#
# The Go build cache, module cache and toolchain home all live under
# .bench_build so the benchmark reads and writes nothing outside the checkout
# except the Go toolchain itself.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/home"
export HOME="$out/home" GOCACHE="$out/gocache" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false CGO_ENABLED=0
go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
