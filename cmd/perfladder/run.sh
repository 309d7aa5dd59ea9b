#!/usr/bin/env bash
# Builds and runs perfladder from the repository root, e.g.
#
#   bash cmd/perfladder/run.sh --workload route_short --seed 1 --seconds 15 --trace 0
#
# Every Go cache, temporary build directory and binary stays under
# .bench_build in the current directory, so a run reads and writes only
# inside the checkout (apart from the Go toolchain itself).
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOFLAGS=-buildvcs=false GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off
go build -C cmd/perfladder -o "$build/perfladder" .
exec "$build/perfladder" "$@"
