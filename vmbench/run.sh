#!/usr/bin/env bash
# Builds vmallocd and the benchmark from the source tree in the current
# directory, then runs the benchmark with the given arguments, e.g.
#
#   bash vmbench/run.sh --workload bulk-ingest --seed 1 --seconds 10 --trace 0
#
# Everything the build and the runs write stays under .bench_build.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOFLAGS=

go build -o "$out/vmallocd" ./cmd/vmallocd
(cd vmbench && go build -o "$out/vmbench" .)

# A checkout without git history records its commit as "none".
commit=$(git rev-parse --short=12 HEAD 2>/dev/null || echo none)

exec "$out/vmbench" -daemon "$out/vmallocd" -work "$out" -commit "$commit" "$@"
