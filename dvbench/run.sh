#!/usr/bin/env bash
# Builds the benchmark and the dualvdd CLI from the sources of the checkout
# this script sits in, then runs the benchmark with the given arguments:
#
#   bash dvbench/run.sh --workload cold-suite --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write goes under <checkout>/.bench_build.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOENV=off
(cd "$here" && go build -o "$out/bin/dvbench" . && go build -o "$out/bin/dualvdd" dualvdd/cmd/dualvdd) >&2
exec "$out/bin/dvbench" -dualvdd "$out/bin/dualvdd" -out "$out" "$@"
