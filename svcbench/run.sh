#!/usr/bin/env bash
# Builds the service benchmark from the checkout's sources and runs it,
# passing every argument through (see svcbench/README.md):
#
#	bash svcbench/run.sh --workload warm-hits --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the checkout. The build cache, the binary and
# every file a run writes stay under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/svcbench/go.mod" || ! -f "$root/go.mod" ]]; then
	echo "svcbench: run from the root of a stubby checkout" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/svcbench" && go build -o "$build/svcbench" .)
exec "$build/svcbench" --dir "$build" "$@"
