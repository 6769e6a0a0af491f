#!/usr/bin/env bash
# Builds korserve and korperf from the checkout this script sits
# in, then runs korperf with the given arguments:
#
#   bash korperf/run.sh --workload lazy-unique --seed 1 --seconds 40 --trace 0
#
# Run it from the repository root. Everything it builds, caches or writes
# stays under .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local

go build -trimpath -o "$out/korserve" ./cmd/korserve
(cd korperf && go build -o "$out/korperf" .)
exec "$out/korperf" -korserve "$out/korserve" -work "$out" "$@"
