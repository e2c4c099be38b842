#!/usr/bin/env bash
# Builds the benchmark and the volaserved binary from this checkout, then runs
# one workload. Run it from the repository root:
#
#	bash perfbench/run.sh --workload table2-slot --seed 1 --seconds 25 --trace 0
#
# Build outputs, the Go build cache and the runs' scratch files all live
# under .bench_build/ in the checkout.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd perfbench && go build -o "$out/bin/perfbench" .)
go build -o "$out/bin/volaserved" ./cmd/volaserved
exec "$out/bin/perfbench" -volaserved "$out/bin/volaserved" -scratch "$out/run" "$@"
