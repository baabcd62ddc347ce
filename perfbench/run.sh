#!/usr/bin/env bash
# Builds mcdla and the perfbench harness from the checkout's source, then runs
# the harness. Run it from the repository root:
#
#   bash perfbench/run.sh --workload paper-cold --seed 1 --seconds 30 --trace 0
#
# Everything the build and the runs leave behind goes under .bench_build/.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/mcdla ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the root of an mcdla checkout (go.mod, cmd/mcdla and perfbench/go.mod are required)" >&2
	exit 2
fi

build="$(pwd)/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gopath" "$build/config" "$build/tmp"
# Keep the toolchain's caches, settings and telemetry inside the checkout.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOENV=off

go build -o "$build/bin/mcdla" ./cmd/mcdla
(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" -root "$(pwd)" -bin "$build/bin/mcdla" "$@"
