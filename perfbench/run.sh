#!/usr/bin/env bash
# Builds the benchmark and papd from the checkout it runs in, then runs
# one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload match-dense --seed 1 --seconds 10 --trace 0
#
# Build products, the Go build cache, spans and run records go to
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/papd" ]]; then
	echo "perfbench: run from the repository root (no go.mod or cmd/papd here)" >&2
	exit 2
fi
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

go build -o "$out/papd" ./cmd/papd >&2
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -papd "$out/papd" -out "$out" "$@"
