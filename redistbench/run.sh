#!/usr/bin/env bash
# Builds the redistribution benchmark from the checkout's sources and runs
# one workload in a fresh process:
#
#   bash redistbench/run.sh --workload scale-shrink --seed 1 --seconds 40 --trace 0
#
# Run it from the root of the repository. Every file the Go toolchain
# writes (build cache, binary, telemetry, temporary files) stays under
# .bench_build in that root. The script fails, printing no result, when
# the repository's sources are missing.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/redistbench"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off \
	GOFLAGS="-mod=mod -buildvcs=false"
export GOWORK=off
unset GOENV

(cd "$root/redistbench" && go build -o "$out/redistbench" .) >&2
exec "$out/redistbench" -root "$root" "$@"
