#!/usr/bin/env bash
# Builds the ledger from the checkout it runs in and runs it with the given
# arguments, e.g.
#
#   bash benchledger/run.sh --workload grid-mem --seed 1 --seconds 30 --trace 0
#
# Run it from the root of a streamcover checkout. Everything it builds or
# writes stays under .bench_build/ there: the Go build cache, the binary and
# the generated instance files.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
(cd "$root/benchledger" && go build -o "$out/benchledger" .) >&2
exec "$out/benchledger" --dir "$out/benchledger-data" "$@"
