#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and
# runs it with the given arguments, e.g.
#
#   bash benchmark/run.sh --workload edit-loop --seed 1 --seconds 15 --trace 0
#
# Run it from the root of the checkout. The Go build cache, the binary and
# every file the benchmark writes stay under .bench_build/ there, and the
# build never touches the network. Build output goes to stderr, so the
# last line of stdout is the benchmark's JSON result.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/bin"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod"
export GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$here" && go build -o "$out/bin/cla-benchmark" .) >&2
exec "$out/bin/cla-benchmark" "$@"
