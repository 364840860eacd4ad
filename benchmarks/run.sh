#!/usr/bin/env bash
# Builds pimperf from source and runs it with the arguments given; this is
# the command BENCHMARK.json names. Everything the build leaves behind (the
# Go build cache and the binary) stays in .bench_build/ at the root of the
# checkout, so a run reads and writes nothing outside it. The first build in
# a checkout compiles the standard library too (about a minute); later ones
# are cache hits.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
(cd "$root/benchmarks/pimperf" && go build -o "$build/pimperf" .)
cd "$root"
exec "$build/pimperf" "$@"
