#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it; every argument is
# passed through. Build outputs, the Go build cache and Go's temporary
# files all live under .bench_build/ so nothing is written outside the
# checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOTOOLCHAIN=local
(cd "$root/benchmark" && go build -o "$build/precursor-benchmark" .)
cd "$root"
exec "$build/precursor-benchmark" "$@"
