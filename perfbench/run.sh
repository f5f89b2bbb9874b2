#!/usr/bin/env bash
# Builds the benchmark and the ssad daemon from this checkout, then runs the
# benchmark with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload serve-small --seed 1 --seconds 10 --trace 0
#
# Build caches, binaries and the traced run's spans stay inside the checkout
# (.bench_build/, .bench_out/). Build output goes to standard error, so the
# last line of standard output is the benchmark's JSON result.
set -euo pipefail

build="$(pwd)/.bench_build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
mkdir -p "$build/bin"
go -C perfbench build -buildvcs=false -o "$build/bin/perfbench" . >&2
go -C perfbench build -buildvcs=false -o "$build/bin/ssad" repro/cmd/ssad >&2
exec "$build/bin/perfbench" -ssad "$build/bin/ssad" "$@"
