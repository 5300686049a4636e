#!/usr/bin/env bash
# Builds the benchmark and the certquery server from this checkout's source,
# then runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload paper-pipeline --seed 1 --seconds 25 --trace 0
#
# Everything the build and the runs leave behind goes under .bench_build/.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/certquery" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a securepki checkout (go.mod, cmd/certquery and perfbench/ must exist)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
# Keep the toolchain's caches, temp files and telemetry inside the checkout,
# and keep it offline.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local GOENV=off CGO_ENABLED=0

go -C "$root/perfbench" build -o "$build/bin/perfbench" .
go -C "$root/perfbench" build -o "$build/bin/certquery" securepki/cmd/certquery

exec "$build/bin/perfbench" -root "$root" -certquery "$build/bin/certquery" "$@"
