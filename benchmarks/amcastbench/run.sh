#!/usr/bin/env bash
# Builds amcastbench from source into .bench_build/ at the root of the
# checkout and runs it with the arguments given. Everything the build and
# the run write stays under that directory.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
build=$(cd "$here/../.." && pwd)/.bench_build
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
go build -C "$here" -o "$build/amcastbench.bin" .
exec "$build/amcastbench.bin" -out "$build/amcastbench" "$@"
