#!/usr/bin/env bash
# Builds the benchmark and spotserve from source, then runs one workload:
#
#   bash perfbench/run.sh --workload serve --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and
# span files all stay under .bench_build (or $CARGO_TARGET_DIR when set).
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"

export GOCACHE="$out/go-cache"
export GOTOOLCHAIN=local
# Keep the go command's own state (telemetry counters, env file) local too.
export XDG_CONFIG_HOME="$out/config"
export GOPATH="$out/gopath"

(cd perfbench && go build -o "$out/bin/perfbench" . && go build -o "$out/bin/spotserve" spothost/cmd/spotserve)

exec "$out/bin/perfbench" --spotserve "$out/bin/spotserve" --out "$out" "$@"
