#!/usr/bin/env bash
# Builds the load generator from this checkout and runs it with the given
# arguments, e.g. from the repository root:
#
#   bash cmd/loadgen/run.sh --workload refine-mem --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the binary and every file a run writes live under
# .bench_build/ in the current directory, and the toolchain is kept local and
# offline, so a run reads and writes nothing outside the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$PWD/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

go -C "$here" build -o "$out/loadgen" .
exec "$out/loadgen" -workdir "$out" "$@"
