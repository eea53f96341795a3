#!/usr/bin/env bash
# Builds the CodecDB benchmark from source and runs it. Run from the root
# of a checkout:
#
#   bash perfbench/run.sh --workload tpch --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and the run's databases all live in
# .bench_build/ under the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/work"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -workdir "$out/work" "$@"
