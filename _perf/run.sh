#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash _perf/run.sh --workload smallfile --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build and module caches, temporary files and the
# traced run's spans all go to .bench_build at the root of the
# checkout, so a run writes nothing outside it.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$root/_perf" && go build -o "$out/lfsperf" .)
cd "$root"
exec "$out/lfsperf" --spans "$out/spans" "$@"
