#!/usr/bin/env bash
# Builds the end-to-end benchmark and the budgetwfd daemon from source,
# then runs one benchmark workload. Run it from the repository root:
#
#   bash e2ebench/run.sh --workload schedule-mix --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the current directory: the Go build cache, the binaries and each
# run's scratch directory (journals). The build is outside every timed
# phase; the last line on standard output is the result as JSON.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/xdg"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/xdg"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$root/e2ebench" && go build -o "$out/e2ebench" .) >&2
go build -o "$out/budgetwfd" ./cmd/budgetwfd >&2
exec "$out/e2ebench" -daemon "$out/budgetwfd" -work "$out" "$@"
