#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash bench/run.sh --workload udp-flood-falcon --seed 1 --seconds 10 --trace 0
#
# The binary, Go build cache, temporary files and Go's per-user state all
# live under .bench_build/ at the root of the checkout, so a run writes
# nothing outside it. Building needs the repository's own module one
# directory up; without it the build, and so the run, fails.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
(cd "$root/bench" && go build -o "$out/falconbench" .)
exec "$out/falconbench" "$@"
