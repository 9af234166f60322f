#!/usr/bin/env bash
# Builds facs-serve and the benchmark from source into .bench_build and
# runs one benchmark invocation. Run it from the repository root:
#
#   bash facsbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Everything it builds or writes stays under .bench_build, including the
# Go build cache.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0
mkdir -p "$out/bin" "$out/tmp"
go build -o "$out/bin/facs-serve" ./cmd/facs-serve >&2
(cd "$root/facsbench" && go build -o "$out/bin/facsbench" .) >&2
exec "$out/bin/facsbench" --serve-bin "$out/bin/facs-serve" --out "$out/spans" "$@"
