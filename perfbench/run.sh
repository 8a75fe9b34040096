#!/usr/bin/env bash
# Builds poetd and the benchmark from the tree, then runs the benchmark.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload ingest-ring --seed 1 --seconds 30 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the checkout:
# the Go build cache, the toolchain's temporary and config files, the
# binaries and the daemons' WAL roots.
set -euo pipefail
out=.bench_build
mkdir -p "$out/tmp"
export GOCACHE="$PWD/$out/gocache" GOPATH="$PWD/$out/gopath" GOTMPDIR="$PWD/$out/tmp" \
	XDG_CONFIG_HOME="$PWD/$out/config" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -o "$out/poetd" ./cmd/poetd
(cd perfbench && go build -o "../$out/perfbench" .)
exec "$out/perfbench" -poetd "$out/poetd" -work "$out/work-$$" "$@"
