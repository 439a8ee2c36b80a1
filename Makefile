# Developer entry points. `make verify` is the full pre-merge gate; CI runs
# the same script.

GO ?= go

.PHONY: build test lint lint-sarif verify experiments bench bench-smoke bench-baseline bench-compare serve-smoke loadtest-smoke fleetsim-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# lint runs the repository's own static analyzers (internal/analysis) over
# every package: detrange, unitsafe, floateq, locksafe, staleplan,
# allocfree, goroleak, httpcontract. Findings honor
# `//lint:ignore <analyzer> <reason>` (the reason is mandatory).
lint:
	$(GO) run ./cmd/dnnlint ./...

# lint-sarif writes the same findings as `make lint` in SARIF 2.1.0 form to
# dnnlint.sarif (written even when findings exist; the target still fails
# on findings so gates keep gating).
lint-sarif:
	$(GO) run ./cmd/dnnlint -sarif ./... > dnnlint.sarif

# verify is the pre-merge gate: a gofmt check of every tracked Go file, vet,
# dnnlint, the full test suite under the race detector (the concurrency
# tests in internal/bench, internal/cache and internal/core only bite with
# -race on), full-fidelity `dnnperf all` diffed against its golden
# (`make experiments`), a 5s run of every fuzz target (the model envelope,
# kernel-family names, network CSV, traceparent, the /predict/batch body,
# its one-pass decoder against encoding/json, and the GET query scanner
# against url.ParseQuery) past its seed corpus, the
# `dnnperf serve` + fleet smoke test, the fleet loadtest smoke, the
# fleetsim smoke, one run of every benchmark (`make bench-smoke`), the
# cached-predict benchmark regression gate with the fleet throughput/p99
# gate, and the lint self-test proving the gate fails on a seeded violation.
# scripts/ci.sh runs all of them.
verify:
	./scripts/ci.sh

# experiments regenerates the stdout goldens of `dnnperf -quick all` and
# full-fidelity `dnnperf all` under cmd/dnnperf/testdata/. A change that
# moves a paper artifact regenerates them in the same diff; the test suite
# diffs the quick one, `make verify` the full one.
experiments:
	$(GO) run ./cmd/dnnperf -quick all > cmd/dnnperf/testdata/all-quick.golden
	$(GO) run ./cmd/dnnperf all > cmd/dnnperf/testdata/all.golden

# bench profiles the collection fast path: the lab collection benchmark with
# a CPU profile (inspect with `go tool pprof`), then one quick collection
# pass exported as a Chrome/Perfetto trace of its per-phase spans (open
# bench-artifacts/collect_trace.json in ui.perfetto.dev).
bench:
	mkdir -p bench-artifacts
	$(GO) test -run '^$$' -bench 'BenchmarkLabDatasetBuild' -benchtime 6x \
		-cpuprofile bench-artifacts/collect_cpu.pprof -o bench-artifacts/bench.test .
	$(GO) run ./cmd/dnnperf -quick -timing -o bench-artifacts/collect_trace.json \
		-out bench-artifacts/dataset collect
	@echo "pprof:    go tool pprof bench-artifacts/bench.test bench-artifacts/collect_cpu.pprof"
	@echo "perfetto: load bench-artifacts/collect_trace.json at https://ui.perfetto.dev"

# bench-smoke compiles and runs every benchmark exactly once — a cheap check
# that no benchmark has rotted, without producing timing numbers.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# bench-baseline regenerates BENCH_baseline.json from the performance-critical
# benchmarks (see scripts/bench_baseline.sh).
bench-baseline:
	./scripts/bench_baseline.sh

# bench-compare reruns the cached-predict benchmarks and fails if any is
# more than 25% slower than its BENCH_baseline.json entry.
bench-compare:
	./scripts/bench_compare.sh

# serve-smoke boots `dnnperf serve` and checks /healthz, /readyz, /metrics
# and both predict endpoints, then a 2-replica fleet: routed predictions,
# 429 backpressure under a concurrent burst, and whole-fleet drain.
serve-smoke:
	./scripts/serve_smoke.sh

# loadtest-smoke drives a 2-replica fleet with `dnnperf loadtest` for ~2s
# and requires non-zero sustained throughput with zero 5xx.
loadtest-smoke:
	./scripts/loadtest_smoke.sh

# fleetsim-smoke replays a 10k-request trace through `dnnperf fleetsim` and
# a small capacity sweep, checking the summary JSON is sane end to end.
fleetsim-smoke:
	./scripts/fleetsim_smoke.sh
