#!/usr/bin/env sh
# ci.sh — the pre-merge gate, invoked by `make verify` and CI.
#
# Commands, in dependency order:
#   1. gofmt            — every tracked Go file (git ls-files) is
#                         gofmt-formatted; build outputs are never checked
#   2. go vet           — toolchain-level static checks
#   3. dnnlint          — the repo's own invariants (internal/analysis):
#                         detrange, unitsafe, floateq, locksafe, staleplan,
#                         allocfree, goroleak, httpcontract
#   4. go test -race    — the full suite under the race detector
#   5. experiments      — full-fidelity `dnnperf all` stdout is byte for
#                         byte cmd/dnnperf/testdata/all.golden (`make
#                         experiments` regenerates it; the test suite
#                         diffs the quick golden)
#   6. fuzz             — each fuzz target (FuzzLoad, FuzzFamilyOf,
#                         FuzzReadNetworksCSV, FuzzParseTraceparent,
#                         FuzzPredictBatchBody, FuzzBatchRequestDecode,
#                         FuzzQueryValue, FuzzForwardRequest) runs 5s of
#                         generated inputs past its seed corpus
#   7. serve smoke test — boot `dnnperf serve`, hit /healthz and /metrics;
#                         then `train -model F` + `serve -model F` must
#                         answer /predict as the self-fitted server; then a
#                         2-replica fleet: one model on every replica
#                         (/modelz version 1), routing, 429 backpressure,
#                         whole-fleet graceful drain
#   8. loadtest smoke   — `dnnperf loadtest` drives a 2-replica fleet for
#                         ~2s; non-zero throughput, zero 5xx required
#   9. fleetsim smoke   — `dnnperf fleetsim` replays a 10k-request trace
#                         against the simulated fleet; every request served
#                         with monotone percentiles, plus a capacity sweep
#                         and a 2k-request replay on the quick-lab IGKW
#                         cluster fleet (`-quick -cluster`)
#  10. bench smoke      — every benchmark in the module runs once
#                         (-benchtime 1x), so none rots unnoticed
#  11. bench compare    — cached-predict benchmarks vs BENCH_baseline.json
#                         (>25% ns/op regression fails) plus the fleet
#                         throughput/p99 gate (BENCH_FLEET_THRESHOLD) and
#                         the fleetsim replay gate (0 allocs/op, ≥1M
#                         simulated requests/sec single-core)
#
# Followed by the lint self-test: seed known violations (one per
# representative analyzer: detrange, allocfree, goroleak, httpcontract,
# staleplan) into a scratch copy of the module and require
# dnnlint to fail with the right finding and the right exit code (0 clean,
# 1 findings, 2 load error), so a silently broken analyzer or a conflated
# exit path cannot green-light the gate.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted="$(git ls-files -z '*.go' | xargs -0 gofmt -l)"
if [ -n "$unformatted" ]; then
    echo "gofmt: these files are not gofmt-formatted (run gofmt -w on them):" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet"
go vet ./...

echo "== dnnlint"
go run ./cmd/dnnlint ./...

echo "== go test -race"
go test -race ./...

echo "== experiments"
bin="$(mktemp -d)/dnnperf"
go build -o "$bin" ./cmd/dnnperf
"$bin" all | diff -u cmd/dnnperf/testdata/all.golden -
rm -rf "$(dirname "$bin")"

echo "== fuzz"
fuzz() { go test -run '^$' -fuzz "^$1\$" -fuzztime 5s "$2"; }
fuzz FuzzLoad ./internal/core
fuzz FuzzFamilyOf ./internal/core
fuzz FuzzReadNetworksCSV ./internal/dataset
fuzz FuzzParseTraceparent ./internal/obs
fuzz FuzzPredictBatchBody ./cmd/dnnperf
fuzz FuzzBatchRequestDecode ./cmd/dnnperf
fuzz FuzzQueryValue ./cmd/dnnperf
fuzz FuzzForwardRequest ./internal/fleet

echo "== serve smoke test"
./scripts/serve_smoke.sh

echo "== loadtest smoke test"
./scripts/loadtest_smoke.sh

echo "== fleetsim smoke test"
./scripts/fleetsim_smoke.sh

echo "== bench smoke"
go test -run '^$' -bench . -benchtime 1x ./...

echo "== bench compare"
./scripts/bench_compare.sh

echo "== dnnlint self-test"
./scripts/lint_selftest.sh

echo "ci: all gates passed"
