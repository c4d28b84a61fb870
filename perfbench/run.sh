#!/usr/bin/env bash
# Builds perfbench from the sources of this checkout and runs it with the
# given arguments. Run it from the root of the checkout:
#
#   bash perfbench/run.sh --workload svc-frames --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache, the go command's own files, temporary
# files, span files and session journals all stay under .bench_build/ in
# the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOMODCACHE="$build/go-path/pkg/mod" \
	GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -out "$build/out" "$@"
