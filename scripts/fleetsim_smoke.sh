#!/bin/sh
# fleetsim_smoke.sh — the fleet simulator's CI smoke: replays a 10k-request
# Poisson trace against a simulated heterogeneous 4-GPU fleet through
# `dnnperf fleetsim` and requires every request served with non-empty,
# monotone latency percentiles, then fans a 2-cell capacity sweep to prove
# the grid path composes, and a planned-policy sweep listed largest fleet
# first (with a space in the policy list) that must give the same capacity
# answer as the ascending grid. Those runs use the synthetic step-time
# oracle. A last run replays 2k requests against the 8-GPU cluster fleet
# (`-quick -cluster`): it collects the quick lab on four GPUs, fits the IGKW
# base, resolves all eight fleet members and compiles their step table, and
# must serve every request. No HTTP; the whole smoke takes a few seconds.
set -eu

cd "$(dirname "$0")/.."

bin="$(mktemp -d)/dnnperf"
out="$(mktemp)"

cleanup() {
    rm -f "$out"
    rm -rf "$(dirname "$bin")"
}
trap cleanup EXIT

echo "fleetsim_smoke: building dnnperf..."
go build -o "$bin" ./cmd/dnnperf

echo "fleetsim_smoke: 4-replica fleet, 10k-request poisson trace..."
"$bin" -fleet-size 4 -rate 300 -requests 10000 -max-batch 8 -seed 7 fleetsim >"$out"

field() {
    sed -n "s/.*\"$1\": \([0-9][0-9.e+-]*\).*/\1/p" "$out" | head -1
}

requests="$(field requests)"
unfinished="$(field unfinished)"
p50="$(field p50_s)"
p99="$(field p99_s)"
p999="$(field p999_s)"

if [ -z "$requests" ] || [ -z "$p50" ] || [ -z "$p99" ] || [ -z "$p999" ]; then
    echo "fleetsim_smoke: summary missing expected keys:" >&2
    cat "$out" >&2
    exit 1
fi
if [ "$requests" != "10000" ] || [ "$unfinished" != "0" ]; then
    echo "fleetsim_smoke: served $requests requests with $unfinished unfinished, want 10000/0" >&2
    cat "$out" >&2
    exit 1
fi
if ! awk "BEGIN { exit !($p50 > 0 && $p99 >= $p50 && $p999 >= $p99) }"; then
    echo "fleetsim_smoke: percentiles empty or non-monotone: p50=$p50 p99=$p99 p999=$p999" >&2
    cat "$out" >&2
    exit 1
fi

echo "fleetsim_smoke: capacity sweep 2,4 replicas at 300 rps..."
"$bin" -sweep-fleet 2,4 -rate 300 -requests 2000 -seed 7 -p99-target 10s fleetsim >"$out"
answer="$(sed -n 's/.*"r300-jsq": \([0-9-][0-9]*\).*/\1/p' "$out" | head -1)"
if [ -z "$answer" ] || [ "$answer" = "-1" ]; then
    echo "fleetsim_smoke: capacity sweep gave no fleet answer:" >&2
    cat "$out" >&2
    exit 1
fi

echo "fleetsim_smoke: planned sweep, fleets listed 4,2 and 2,4..."
capacity() {
    "$bin" -sweep-fleet "$1" -sweep-rate 150,300 -sweep-policy "jsq, search" \
        -requests 2000 -seed 7 -p99-target 10s fleetsim >"$out"
    sed -n '/"min_fleet_for_p99"/,/}/p' "$out"
}
descending="$(capacity 4,2)"
ascending="$(capacity 2,4)"
if [ -z "$ascending" ] || ! printf '%s\n' "$ascending" | grep -q '"r300-search"'; then
    echo "fleetsim_smoke: planned sweep gave no search-policy answer:" >&2
    cat "$out" >&2
    exit 1
fi
if [ "$descending" != "$ascending" ]; then
    echo "fleetsim_smoke: capacity answer depends on grid order:" >&2
    echo "fleets 4,2: $descending" >&2
    echo "fleets 2,4: $ascending" >&2
    exit 1
fi

echo "fleetsim_smoke: 8-GPU cluster fleet from the quick-lab IGKW oracle, 2k requests..."
"$bin" -quick -cluster -fleet-size 8 -rate 40 -requests 2000 -seed 7 fleetsim >"$out"
served="$(sed -n '/"result"/,$ s/.*"requests": \([0-9]*\).*/\1/p' "$out" | head -1)"
cluster_unfinished="$(field unfinished)"
if [ "$served" != "2000" ] || [ "$cluster_unfinished" != "0" ]; then
    echo "fleetsim_smoke: cluster fleet served $served requests with $cluster_unfinished unfinished, want 2000/0" >&2
    cat "$out" >&2
    exit 1
fi
if ! grep -q '"r07:GTX 1080 Ti@300GBps"' "$out"; then
    echo "fleetsim_smoke: cluster fleet lacks its resolved hypothetical GPUs:" >&2
    cat "$out" >&2
    exit 1
fi

echo "fleetsim_smoke: 10000 requests replayed, p50=${p50}s p99=${p99}s, capacity answer ${answer} replicas; cluster fleet served 2000/2000"
