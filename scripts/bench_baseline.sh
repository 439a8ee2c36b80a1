#!/bin/sh
# Regenerates BENCH_baseline.json: the committed reference numbers for the
# prediction hot path, the lab collection pipeline, and the fleet serving
# tier. Run from the repo root on a quiet machine; numbers are indicative
# (one -benchtime=1000x sample per benchmark, one loadtest run), meant to
# catch order-of-magnitude regressions, not 5% drifts.
#
# Fleet entries (`fleet_throughput_rps`, `fleet_p99_ns`) come from a short
# `dnnperf loadtest` run whose arguments MUST match bench_compare.sh exactly
# — the gate is only meaningful against a baseline measured the same way on
# the same machine.
set -eu

cd "$(dirname "$0")/.."

out=BENCH_baseline.json
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

# Plan-layer micro-benchmarks (internal/core), the end-to-end prediction
# benchmarks at the root package, and the serve handler path.
go test -run '^$' -bench 'BenchmarkPlanCompile|BenchmarkKWPredictPlan|BenchmarkKWPredictUncached$|BenchmarkKWPredictParallel|BenchmarkPredictSweep' \
    -benchtime 1000x ./internal/core/ >"$tmp"
go test -run '^$' -bench 'BenchmarkKWPredict$|BenchmarkKWPredictUncachedE2E|BenchmarkKWPredictConcurrent' \
    -benchtime 1000x . >>"$tmp"
go test -run '^$' -bench 'BenchmarkServePredict' \
    -benchtime 1000x ./cmd/dnnperf/ >>"$tmp"
go test -run '^$' -bench 'BenchmarkLabDatasetBuild' -benchtime 3x . >>"$tmp"

# Collection fast path: one Build pass, one detail profile, one stats fit.
go test -run '^$' -bench 'BenchmarkDatasetBuild$' -benchtime 10x ./internal/dataset/ >>"$tmp"
go test -run '^$' -bench 'BenchmarkProfile$' -benchtime 200x ./internal/profiler/ >>"$tmp"
go test -run '^$' -bench 'BenchmarkFitKW$' -benchtime 50x ./internal/core/ >>"$tmp"

# Static-analysis gate cost: a full dnnlint pass over the module. One
# invocation with b.N=3 — cold importer on the first pass, memoized on the
# rest — matching bench_compare.sh exactly.
go test -run '^$' -bench 'BenchmarkDnnlintModule$' -benchtime 3x ./internal/analysis/ >>"$tmp"

# Cluster-scale scheduler: full 10⁵-task search pipeline and the
# incremental move-evaluation hot path (its allocs/op baseline is
# informational — bench_compare.sh holds it at absolute 0).
go test -run '^$' -bench 'BenchmarkScheduleLocalSearch$' -benchtime 2x ./internal/sched/ >>"$tmp"
go test -run '^$' -bench 'BenchmarkScheduleMoveEval$' -benchtime 20000x ./internal/sched/ >>"$tmp"

# Fleet simulator: the discrete-event replay benchmark. Its ns/op and
# allocs/op land in the JSON like every other entry; its events/s custom
# metric becomes the fleetsim_events_per_sec figure bench_compare.sh holds
# the simulator to.
go test -run '^$' -bench 'BenchmarkFleetSimReplay$' -benchtime 10x ./internal/fleetsim/ >>"$tmp"
fleetsim_events="$(awk '/^BenchmarkFleetSimReplay/ {
    for (i = 2; i < NF; i++)
        if ($(i + 1) == "events/s" && (best == "" || $i + 0 > best)) best = $i + 0
} END { print best }' "$tmp")"
if [ -z "$fleetsim_events" ]; then
    echo "bench_baseline: no events/s metric parsed for BenchmarkFleetSimReplay" >&2
    exit 1
fi

# Fleet serving tier: best of three loadtest runs (max throughput, min p99
# — open-loop tail latency on a shared box is dominated by scheduler noise,
# and as with the micro-benchmarks, slowdowns are noise while speedups are
# not). Arguments must match bench_compare.sh.
echo "bench_baseline: running fleet loadtest x3 (2 replicas, 400 rps, 6s)..."
ltout="$(mktemp)"
bin="$(mktemp -d)/dnnperf"
trap 'rm -f "$tmp" "$ltout"; rm -rf "$(dirname "$bin")"' EXIT
go build -o "$bin" ./cmd/dnnperf
fleet_thr=""
fleet_p99=""
run=0
while [ "$run" -lt 3 ]; do
    "$bin" -quick -replicas 2 -max-inflight 256 -rate 400 -duration 6s -warmup 2s -seed 7 loadtest >"$ltout"
    thr="$(sed -n 's/.*"fleet_throughput_rps": \([0-9][0-9.]*\).*/\1/p' "$ltout" | head -1)"
    p99="$(sed -n 's/.*"fleet_p99_ns": \([0-9][0-9]*\).*/\1/p' "$ltout" | head -1)"
    if [ -z "$thr" ] || [ -z "$p99" ]; then
        echo "bench_baseline: loadtest summary missing fleet metrics:" >&2
        cat "$ltout" >&2
        exit 1
    fi
    if [ -z "$fleet_thr" ] || awk "BEGIN { exit !($thr > $fleet_thr) }"; then
        fleet_thr="$thr"
    fi
    if [ -z "$fleet_p99" ] || awk "BEGIN { exit !($p99 < $fleet_p99) }"; then
        fleet_p99="$p99"
    fi
    run=$((run + 1))
done

# Convert `BenchmarkName-P  N  T ns/op  B B/op  A allocs/op` lines to JSON,
# leaving the object open so the fleet entries can be appended.
awk 'BEGIN { print "{"; first = 1 }
/^Benchmark/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    nsop = ""; bop = ""; allocs = ""
    for (i = 2; i < NF; i++) {
        if ($(i + 1) == "ns/op") nsop = $i
        if ($(i + 1) == "B/op") bop = $i
        if ($(i + 1) == "allocs/op") allocs = $i
    }
    if (nsop == "") next
    if (!first) printf(",\n")
    first = 0
    printf("  \"%s\": {\"ns_per_op\": %s", name, nsop)
    if (bop != "") printf(", \"bytes_per_op\": %s", bop)
    if (allocs != "") printf(", \"allocs_per_op\": %s", allocs)
    printf("}")
}
END { printf(",\n") }' "$tmp" >"$out"

printf '  "fleetsim_events_per_sec": {"value": %s},\n' "$fleetsim_events" >>"$out"
printf '  "fleet_throughput_rps": {"value": %s},\n' "$fleet_thr" >>"$out"
printf '  "fleet_p99_ns": {"value": %s}\n}\n' "$fleet_p99" >>"$out"

echo "wrote $out:"
cat "$out"
