#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it, passing
# every argument through:
#
#   bash perfbench/run.sh --workload fit-serial --seed 1 --seconds 15 --trace 0
#
# The build cache, temporary files, the binary and the traced runs' spans
# all live under .bench_build at the repository root, so a run reads and
# writes nothing outside the checkout.
set -euo pipefail

cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
if [ ! -f "$out/config/go/telemetry/mode" ]; then
	go telemetry off
fi

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
