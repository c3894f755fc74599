#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it; flags pass
# through (see bench/README.md). Run from the repository root:
#
#   bash bench/run.sh --workload sim-congest --seed 1 --seconds 15 --trace 0
#
# Everything the build and the runs write — the Go build cache included —
# stays under .bench_build/ in the repository root.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp"
(cd "$root/bench" && go build -o "$out/bin/dsssp-bench" .)
exec "$out/bin/dsssp-bench" "$@"
