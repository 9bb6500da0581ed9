#!/usr/bin/env bash
# Builds the benchmark from the sources of the repository it sits in and
# runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload fleet-cold --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (Go build cache, binary, trace files) goes
# under .bench_build in the repository root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOTELEMETRY=off XDG_CONFIG_HOME="$out/config"

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -root "$root" "$@"
