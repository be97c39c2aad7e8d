#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the checkout root and
# runs it with the arguments given. The Go build cache lives there too, so
# nothing is written outside the checkout. Fails (non-zero, no result line)
# when the repository the benchmark measures is not around it.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local
go build -C bench -o "$build/buffalo-bench" .
exec "$build/buffalo-bench" "$@"
