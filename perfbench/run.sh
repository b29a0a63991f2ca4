#!/usr/bin/env bash
# Builds the perfbench binary from the sources of the checkout it is run
# from, then runs it with the given arguments:
#
#   bash perfbench/run.sh --workload fig8-sweep --seed 1 --seconds 30 --trace 0
#
# Run it from the checkout root. Everything the build and the run write
# (binary, Go build cache, Go config, temporary files, traces) stays under
# .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
if [ ! -f "$here/../go.mod" ]; then
	echo "perfbench: $here/../go.mod not found; run from a full checkout of the repository" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" TMPDIR="$build/tmp" \
	GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
