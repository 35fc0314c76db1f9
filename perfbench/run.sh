#!/usr/bin/env bash
# Builds the benchmark and the avail-server under test from the checkout's
# source, then runs one workload:
#
#   bash perfbench/run.sh --workload paper-analytic --seed 1 --seconds 40 --trace 0
#
# Run it from the root of a checkout. Build outputs, the Go build cache and
# traced-run span files all stay under .bench_build/perfbench.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out"

# Keep the toolchain's caches, telemetry counters and temporary files in
# the checkout too.
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

cd "$here"
go build -o "$out/perfbench" .
go build -o "$out/avail-server" repro/cmd/avail-server

cd "$root"
exec "$out/perfbench" -server "$out/avail-server" -out "$out" "$@"
