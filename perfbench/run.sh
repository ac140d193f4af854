#!/usr/bin/env bash
# run.sh builds the benchmark from source and runs it with the given
# arguments. Run it from the root of a checkout:
#
#   bash perfbench/run.sh --workload fleet-mem --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache and config (where the toolchain keeps
# its telemetry counters), the binary, and the run's scratch files
# (artifacts, WAL segments), which the benchmark removes on exit.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
