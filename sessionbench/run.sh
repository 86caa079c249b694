#!/usr/bin/env bash
# Builds the session benchmark from this checkout's source and runs it.
# Run it from the repository root, for example:
#
#   bash sessionbench/run.sh --workload session-ddt --seed 1 --seconds 20 --trace 0
#
# The build cache, the binary, durable session state and trace spans all
# stay under .bench_build/ in the directory it is run from.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$(dirname "$0")" && go build -o "$out/sessionbench" .)
exec "$out/sessionbench" --scratch "$out" "$@"
