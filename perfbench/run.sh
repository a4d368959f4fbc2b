#!/usr/bin/env bash
# Builds perfbench from the sources of the checkout it sits in and runs
# it with the given arguments, for example
#
#   bash perfbench/run.sh --workload smallfile-dsfs --seed 1 --seconds 30 --trace 0
#
# Run it from the root of the checkout. The binary, the Go build cache
# and the benchmark's scratch exports all live under .bench_build/ there.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GO111MODULE=on GOPROXY=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
