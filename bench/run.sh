#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping every file the
# toolchain and the benchmark write (build cache, temp files, journals,
# span files) under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home"
export HOME="$build/home" GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
unset XDG_CONFIG_HOME XDG_CACHE_HOME GOPATH GOMODCACHE GOENV
go -C "$root/bench" build -o "$build/deta-bench" .
cd "$root"
exec "$build/deta-bench" "$@"
