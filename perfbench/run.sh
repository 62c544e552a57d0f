#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from
# and executes it.  Run from the repository root:
#
#   bash perfbench/run.sh --workload paper-table3 --seed 1 --seconds 20 --trace 0
#
# Every build product (binary, Go build cache) lands in .bench_build/ at
# the root, so nothing is read or written outside the checkout.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
export GOFLAGS=
export CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
