#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it
# with the given arguments. Run it from the root of the repository:
#
#   bash perfbench/run.sh --workload get-tcp --seed 1 --seconds 10 --trace 0
#
# Everything the build writes stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C perfbench build -buildvcs=false -o "$out/perfbench" .
# The commit goes into the host fingerprint when the checkout is a git
# work tree of its own; a plain source tree reports "unknown".
PERFBENCH_COMMIT=unknown
if [ -e .git ]; then
  PERFBENCH_COMMIT=$(git rev-parse HEAD 2>/dev/null || echo unknown)
fi
export PERFBENCH_COMMIT
exec "$out/perfbench" "$@"
