#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ of the current checkout
# and runs it there; every file Go writes (build cache and temporary files
# included) stays inside the checkout. Run from the repository root:
#   bash bench/run.sh --workload friend-1rack --seed 1 --seconds 16 --trace 0
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local
(cd "$root/bench" && go build -buildvcs=false -o "$out/friendbench" .) >&2
exec "$out/friendbench" "$@"
