#!/bin/bash
# Builds the benchmark inside the checkout and runs it; every argument is
# the benchmark's. Nothing is read or written outside the checkout: the Go
# build cache and the binary live in .bench_build next to the stores.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache" GOTOOLCHAIN=local
go build -o .bench_build/bench ./bench
exec .bench_build/bench "$@"
