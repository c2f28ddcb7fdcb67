#!/usr/bin/env bash
# Builds bowperf from the checkout's source and runs it with the given
# flags. Run from the repository root:
#
#   bash bench/run.sh --workload crosspolicy_cold --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build in the
# checkout: the Go build cache, the binary, profiles, spans, run records.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS=
export GOWORK=off
export GOPROXY=off
export GOTOOLCHAIN=local
export PPROF_TMPDIR="$out/pprof"

(cd "$root/bench" && go build -o "$out/bowperf" ./cmd/bowperf)
exec "$out/bowperf" "$@"
