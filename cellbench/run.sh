#!/usr/bin/env bash
# Builds the cell benchmark from this checkout and runs it. Every argument
# is passed to the benchmark, for example:
#
#   bash cellbench/run.sh --workload core-tpcc --seed 1 --seconds 12 --trace 0
#
# Run it from the root of the repository. Build outputs, write-ahead logs
# and span dumps all stay under .bench_build in the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home"

# Keep the Go toolchain's caches and settings inside the checkout and
# offline: the benchmark depends on nothing but this repository.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod" HOME="$build/home" XDG_CONFIG_HOME="$build/home"
export GOFLAGS=-mod=readonly GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off

# The Go distribution's default install location, for shells without it
# on PATH.
command -v go >/dev/null || PATH="/usr/local/go/bin:$PATH"
(cd "$root/cellbench" && go build -o "$build/cellbench" .)
cd "$root"
exec "$build/cellbench" --workdir "$build" "$@"
