#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Everything the toolchain writes (build cache, temp files, the binary)
# stays under .bench_build/ so a run reads and writes only its checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$build/parlap-bench" .)
cd "$root"
exec "$build/parlap-bench" "$@"
