#!/usr/bin/env bash
# Builds arcs, arcsd, synthgen and the benchmark program from this
# checkout, then runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload cli-csv --seed 1 --seconds 30 --trace 0
#
# Everything it writes (Go build cache, binaries, generated inputs) goes
# under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/arcs" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (no go.mod, cmd/arcs or perfbench/go.mod here)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
# The go command keeps its user configuration and telemetry under the
# user config directory; keep those inside the checkout too.
export XDG_CONFIG_HOME="$build/config"

go build -o "$build/bin/" ./cmd/arcs ./cmd/arcsd ./cmd/synthgen
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" "$@"
