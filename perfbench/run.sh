#!/usr/bin/env bash
# Builds the benchmark and the dnnperf binary it drives, then runs one
# workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 10 --trace 0
#
# Everything it writes (binaries, traces, and the Go toolchain's build
# cache, module path and config files) stays under .bench_build/ in the
# repository root. The build needs no network: the benchmark depends only
# on this repository.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/dnnperf || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (needs go.mod, cmd/dnnperf and perfbench/)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off

go build -o "$out/dnnperf" ./cmd/dnnperf
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --dnnperf "$out/dnnperf" --out "$out" "$@"
