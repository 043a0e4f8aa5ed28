#!/usr/bin/env bash
# Builds the benchmark program and timelyd from this source tree, then runs
# one benchmark run:
#
#   bash perfbench/run.sh --workload suite|serve-shared|serve-unique \
#       --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Everything it writes (Go build cache,
# binaries, child logs, span traces) stays under .bench_build/. The last
# line of standard output is the run's JSON result; progress goes to
# standard error.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/perfbench" ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/ not found in $root)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOPROXY=off
export GOENV=off

go build -o "$out/timelyd" ./cmd/timelyd
(cd perfbench && go build -o "$out/perfbench" .)

exec "$out/perfbench" -timelyd "$out/timelyd" -out "$out" "$@"
