#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument passes
# through (see bench/README.md). Run from the repository root. The build
# cache, the toolchain's per-user files, the binary and the snapshot
# catalogs stay under .bench_build in the current directory.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" \
	GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off GOENV=off
(cd bench && go build -o "$build/bench" .)
exec "$build/bench" "$@"
