#!/usr/bin/env bash
# Builds the benchmark once and becomes it: one process per run, no
# children left behind. Run from the root of a checkout:
#
#   bash benchmark/run.sh --workload memo_hit --seed 1 --seconds 30 --trace 0
#
# Everything the build writes stays inside the checkout (benchmark/bin).
set -euo pipefail
cd "$(dirname "$0")/.."
bin="$PWD/benchmark/bin"
mkdir -p "$bin/config/go/telemetry"

# The go command starts a detached telemetry child whenever its config
# directory holds no fresh upload token, which a fresh checkout guarantees.
# With the mode file saying "off" it takes no token and spawns nothing.
export XDG_CONFIG_HOME="$bin/config"
echo off > "$XDG_CONFIG_HOME/go/telemetry/mode"
export GOCACHE="$bin/gocache" GOTOOLCHAIN=local

# A signal during the build ends the script once the build has returned,
# before the benchmark starts; after exec the benchmark handles its own.
trap 'exit 143' TERM INT
go build -o "$bin/benchmark" ./benchmark
exec "$bin/benchmark" "$@"
