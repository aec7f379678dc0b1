#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources into .bench_build and
# runs it with the given arguments, for example:
#   bash perfbench/run.sh --workload hit-1n --seed 1 --seconds 12 --trace 0
# Every file the build writes stays under .bench_build at the checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [ ! -f "$root/go.mod" ]; then
  echo "perfbench: $root holds no go.mod; run from a checkout of the repository" >&2
  exit 1
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
# XDG_CONFIG_HOME keeps the toolchain's own config and telemetry files in
# the checkout too.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
