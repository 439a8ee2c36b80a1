#!/bin/sh
# serve_smoke.sh — boots `dnnperf serve` and verifies the serving surface
# end to end: /healthz must return 200 promptly (liveness is independent of
# the model warm-up), /readyz must flip from 503 to 200 when the model
# lands, /metrics must emit Prometheus text containing the obs registry's
# serve counters, and once the model is warm both /predict and
# /predict/batch (GET and POST) must answer with predictions. The server
# must exit 0 on SIGTERM — the graceful-shutdown contract.
#
# A second section trains the same model into a file (`dnnperf -model F
# train`) and serves it (`dnnperf -model F serve`): the loaded server must
# become ready and answer /predict exactly as the self-fitted one did.
#
# A third section boots a 2-replica fleet proxy with a deliberately tiny
# admission cap (-max-inflight 1), verifies that both replicas serve the
# parent's one fitted model (/modelz version 1, equal kernel and group
# counts) and routed predictions, provokes a 429 Retry-After backpressure
# response with a concurrent burst, verifies the tracing surface (a sampled
# traceparent's trace ID is echoed in X-Trace-Id) and the /metricsz
# aggregation (merged histogram buckets equal the bucket-wise sum of the
# replica histograms), and checks that SIGTERM drains the whole fleet: proxy
# exits 0 and no replica processes survive it.
set -eu

cd "$(dirname "$0")/.."

addr="${SERVE_SMOKE_ADDR:-localhost:18097}"
fleet_addr="${SERVE_SMOKE_FLEET_ADDR:-localhost:18098}"
model_addr="${SERVE_SMOKE_MODEL_ADDR:-localhost:18099}"
bin="$(mktemp -d)/dnnperf"
workdir="$(dirname "$bin")"
log="$(mktemp)"
codes="$(mktemp)"
pid=""

cleanup() {
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    rm -f "$log" "$codes"
    rm -rf "$(dirname "$bin")"
}
trap cleanup EXIT

fetch() {
    if command -v curl >/dev/null 2>&1; then
        curl -fsS --max-time 10 "$1"
    else
        wget -q -T 10 -O - "$1"
    fi
}

post() {
    if command -v curl >/dev/null 2>&1; then
        curl -fsS --max-time 10 -H 'Content-Type: application/json' -d "$2" "$1"
    else
        wget -q -T 10 -O - --header 'Content-Type: application/json' --post-data "$2" "$1"
    fi
}

# code prints only the HTTP status of a GET, without failing the script.
code() {
    if command -v curl >/dev/null 2>&1; then
        curl -s -o /dev/null --max-time 15 -w '%{http_code}\n' "$1" || echo 000
    elif wget -q -T 15 -O /dev/null "$1" 2>/dev/null; then
        echo 200
    else
        echo 000
    fi
}

echo "serve_smoke: building dnnperf..."
go build -o "$bin" ./cmd/dnnperf

"$bin" -quick -addr "$addr" serve >"$log" 2>&1 &
pid=$!

ok=0
i=0
while [ "$i" -lt 40 ]; do
    if fetch "http://$addr/healthz" >/dev/null 2>&1; then
        ok=1
        break
    fi
    if ! kill -0 "$pid" 2>/dev/null; then
        echo "serve_smoke: server exited early:" >&2
        cat "$log" >&2
        exit 1
    fi
    sleep 0.25
    i=$((i + 1))
done
if [ "$ok" -ne 1 ]; then
    echo "serve_smoke: /healthz did not come up within 10s" >&2
    cat "$log" >&2
    exit 1
fi

health="$(fetch "http://$addr/healthz")"
case "$health" in
*'"status"'*) : ;;
*)
    echo "serve_smoke: unexpected /healthz body: $health" >&2
    exit 1
    ;;
esac

metrics="$(fetch "http://$addr/metrics")"
case "$metrics" in
*serve_requests_total*) : ;;
*)
    echo "serve_smoke: /metrics missing serve_requests_total:" >&2
    printf '%s\n' "$metrics" | head -5 >&2
    exit 1
    ;;
esac

fetch "http://$addr/metrics.json" >/dev/null

# Wait for the background model fit so the predict endpoints can answer.
ok=0
i=0
while [ "$i" -lt 240 ]; do
    health="$(fetch "http://$addr/healthz")"
    case "$health" in
    *'"model_ready": true'*)
        ok=1
        break
        ;;
    *'"status": "degraded"'*)
        echo "serve_smoke: model warm-up failed: $health" >&2
        exit 1
        ;;
    esac
    sleep 0.5
    i=$((i + 1))
done
if [ "$ok" -ne 1 ]; then
    echo "serve_smoke: model not ready within 120s" >&2
    cat "$log" >&2
    exit 1
fi

# With the model warm, the readiness probe must agree with liveness.
ready="$(fetch "http://$addr/readyz")"
case "$ready" in
*'"ready": true'*) : ;;
*)
    echo "serve_smoke: /readyz not ready after model_ready: $ready" >&2
    exit 1
    ;;
esac

self_pred="$(fetch "http://$addr/predict?network=resnet50&batch=64")"
case "$self_pred" in
*'"predicted_ms"'*) : ;;
*)
    echo "serve_smoke: unexpected /predict body: $self_pred" >&2
    exit 1
    ;;
esac

batch_get="$(fetch "http://$addr/predict/batch?network=resnet50&batches=1,2,4")"
case "$batch_get" in
*'"predicted_ms":['*) : ;;
*)
    echo "serve_smoke: unexpected GET /predict/batch body: $batch_get" >&2
    exit 1
    ;;
esac

batch_post="$(post "http://$addr/predict/batch" '{"network": "resnet18", "batches": [1, 8]}')"
case "$batch_post" in
*'"predicted_ms":['*) : ;;
*)
    echo "serve_smoke: unexpected POST /predict/batch body: $batch_post" >&2
    exit 1
    ;;
esac

# SIGTERM must drain and exit cleanly (status 0), not die on the signal.
kill "$pid"
status=0
wait "$pid" || status=$?
pid=""
if [ "$status" -ne 0 ]; then
    echo "serve_smoke: server exited with status $status on SIGTERM; graceful shutdown broken" >&2
    cat "$log" >&2
    exit 1
fi

echo "serve_smoke: single-server health, readiness, metrics, predict and graceful shutdown verified"

# --- Model-file section: train once into a file, serve the file.
"$bin" -quick -model "$workdir/m.json" train >"$log" 2>&1 || {
    echo "serve_smoke: train -model failed:" >&2
    cat "$log" >&2
    exit 1
}
"$bin" -quick -model "$workdir/m.json" -addr "$model_addr" serve >"$log" 2>&1 &
pid=$!
ok=0
i=0
while [ "$i" -lt 240 ]; do
    if [ "$(code "http://$model_addr/readyz")" = "200" ]; then
        ok=1
        break
    fi
    if ! kill -0 "$pid" 2>/dev/null; then
        echo "serve_smoke: model-file server exited early:" >&2
        cat "$log" >&2
        exit 1
    fi
    sleep 0.25
    i=$((i + 1))
done
if [ "$ok" -ne 1 ]; then
    echo "serve_smoke: model-file server not ready within 60s:" >&2
    fetch "http://$model_addr/readyz" >&2 || true
    cat "$log" >&2
    exit 1
fi
file_pred="$(fetch "http://$model_addr/predict?network=resnet50&batch=64")"
if [ "$file_pred" != "$self_pred" ]; then
    echo "serve_smoke: the model-file server answers differently from the self-fitted one:" >&2
    echo "  file: $file_pred" >&2
    echo "  self: $self_pred" >&2
    exit 1
fi
kill "$pid"
status=0
wait "$pid" || status=$?
pid=""
if [ "$status" -ne 0 ]; then
    echo "serve_smoke: model-file server exited with status $status on SIGTERM" >&2
    cat "$log" >&2
    exit 1
fi

echo "serve_smoke: train -model then serve -model answers as the self-fitted server"

# --- Fleet section: sharded proxy, admission backpressure, whole-fleet drain.
echo "serve_smoke: booting 2-replica fleet with max-inflight 1..."
"$bin" -quick -replicas 2 -max-inflight 1 -addr "$fleet_addr" fleet >"$log" 2>&1 &
pid=$!

ok=0
i=0
while [ "$i" -lt 240 ]; do
    health="$(fetch "http://$fleet_addr/healthz" 2>/dev/null || true)"
    case "$health" in
    *'"ready": 2'*)
        ok=1
        break
        ;;
    esac
    if ! kill -0 "$pid" 2>/dev/null; then
        echo "serve_smoke: fleet proxy exited early:" >&2
        cat "$log" >&2
        exit 1
    fi
    sleep 0.5
    i=$((i + 1))
done
if [ "$ok" -ne 1 ]; then
    echo "serve_smoke: fleet replicas not ready within 120s" >&2
    cat "$log" >&2
    exit 1
fi

# Every replica serves the parent's one fitted model: version 1, with equal
# kernel and group counts.
raddrs="$(sed -n 's/^dnnperf fleet: replica [0-9]* serving on \([^ ]*\).*/\1/p' "$log")"
if [ "$(printf '%s\n' "$raddrs" | wc -l)" -ne 2 ]; then
    echo "serve_smoke: expected 2 replica addresses in fleet log, got: $raddrs" >&2
    exit 1
fi
models=""
for ra in $raddrs; do
    mz="$(fetch "http://$ra/modelz")"
    row="$(printf '%s\n' "$mz" | awk -F'[:,]' '
        /^  "version":/ { v = $2 + 0 }
        /^  "kernels":/ { k = $2 + 0 }
        /^  "groups":/  { g = $2 + 0 }
        END { print v, k, g }')"
    case "$row" in
    "1 "*) : ;;
    *)
        echo "serve_smoke: replica $ra does not serve model version 1: $mz" >&2
        exit 1
        ;;
    esac
    models="$models$row
"
done
if [ "$(printf '%s' "$models" | sort -u | wc -l)" -ne 1 ]; then
    echo "serve_smoke: replicas serve different models (version kernels groups):" >&2
    printf '%s' "$models" >&2
    exit 1
fi

# A routed prediction through the proxy must succeed once replicas are ready.
pred="$(fetch "http://$fleet_addr/predict?network=resnet50&batch=64")"
case "$pred" in
*'"predicted_ms"'*) : ;;
*)
    echo "serve_smoke: unexpected fleet /predict body: $pred" >&2
    exit 1
    ;;
esac

# Backpressure: with a per-replica in-flight cap of 1, a concurrent burst of
# slow batch sweeps must saturate both replicas and surface at least one 429
# (the proxy spills to the other replica first, then sheds). Several rounds
# guard against scheduling luck on small machines.
batches="$(seq 1 300 | paste -sd, -)"
saw429=0
round=0
while [ "$round" -lt 5 ] && [ "$saw429" -eq 0 ]; do
    : >"$codes"
    burst_pids=""
    j=0
    while [ "$j" -lt 24 ]; do
        code "http://$fleet_addr/predict/batch?network=resnet50&batches=$batches" >>"$codes" &
        burst_pids="$burst_pids $!"
        j=$((j + 1))
    done
    for bp in $burst_pids; do
        wait "$bp" || true
    done
    if grep -q '^429$' "$codes"; then
        saw429=1
    fi
    round=$((round + 1))
done
if [ "$saw429" -ne 1 ]; then
    echo "serve_smoke: no 429 observed from saturated fleet after $round burst rounds:" >&2
    sort "$codes" | uniq -c >&2
    exit 1
fi
if grep -q '^5' "$codes"; then
    echo "serve_smoke: 5xx under burst load:" >&2
    sort "$codes" | uniq -c >&2
    exit 1
fi

# The fleet must recover once the burst drains.
st="$(code "http://$fleet_addr/predict?network=resnet50&batch=64")"
if [ "$st" != "200" ]; then
    echo "serve_smoke: fleet did not recover after burst, /predict -> $st" >&2
    exit 1
fi

# Tracing: a request carrying a sampled traceparent must get its trace ID
# echoed in X-Trace-Id (trace continuation is deterministic, unlike the
# proxy's own 1-in-N head sampling).
tp='00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01'
want_tid='0af7651916cd43dd8448eb211c80319c'
if command -v curl >/dev/null 2>&1; then
    hdrs="$(curl -fsS --max-time 10 -H "traceparent: $tp" -D - -o /dev/null "http://$fleet_addr/predict?network=resnet50&batch=64")"
else
    hdrs="$(wget -q -T 10 -O /dev/null -S --header "traceparent: $tp" "http://$fleet_addr/predict?network=resnet50&batch=64" 2>&1)"
fi
case "$(printf '%s' "$hdrs" | tr 'A-Z' 'a-z')" in
*"x-trace-id: $want_tid"*) : ;;
*)
    echo "serve_smoke: proxy did not echo X-Trace-Id $want_tid for a sampled traceparent:" >&2
    printf '%s\n' "$hdrs" >&2
    exit 1
    ;;
esac

# Merged fleet metrics: every /metricsz bucket of the predict stage
# histogram must equal the sum of the replicas' buckets. The stage metrics
# only move on /predict traffic, which the health prober never sends, so the
# replica scrapes and the merged scrape see identical counters.
i=0
for ra in $raddrs; do
    i=$((i + 1))
    fetch "http://$ra/metrics.json" >"$workdir/replica$i.json"
done
fetch "http://$fleet_addr/metricsz" >"$workdir/merged.json"

# cums prints the cumulative bucket counts of serve_stage_predict_seconds.
cums() {
    awk '/"name":/ { f = 0 }
         /"name": "serve_stage_predict_seconds"/ { f = 1 }
         f && /"cumulative":/ { gsub(/[^0-9]/, ""); print }' "$1"
}
cums "$workdir/replica1.json" >"$workdir/c1"
cums "$workdir/replica2.json" >"$workdir/c2"
cums "$workdir/merged.json" >"$workdir/cm"
if [ ! -s "$workdir/c1" ] || [ ! -s "$workdir/c2" ] || [ ! -s "$workdir/cm" ]; then
    echo "serve_smoke: serve_stage_predict_seconds missing from a metrics scrape" >&2
    exit 1
fi
if ! paste "$workdir/c1" "$workdir/c2" "$workdir/cm" | awk '{ if ($1 + $2 != $3) exit 1 }'; then
    echo "serve_smoke: /metricsz buckets are not the bucket-wise sum of the replicas:" >&2
    paste "$workdir/c1" "$workdir/c2" "$workdir/cm" >&2
    exit 1
fi
if [ "$(tail -1 "$workdir/cm")" = "0" ]; then
    echo "serve_smoke: merged serve_stage_predict_seconds has zero observations despite predict traffic" >&2
    exit 1
fi

# SIGTERM must drain the proxy AND terminate every spawned replica.
kill "$pid"
status=0
wait "$pid" || status=$?
pid=""
if [ "$status" -ne 0 ]; then
    echo "serve_smoke: fleet proxy exited with status $status on SIGTERM" >&2
    cat "$log" >&2
    exit 1
fi
survivors="$(ps ax -o pid= -o command= 2>/dev/null | grep -F "$bin" | grep -v grep || true)"
if [ -n "$survivors" ]; then
    echo "serve_smoke: replica processes survived fleet shutdown:" >&2
    echo "$survivors" >&2
    exit 1
fi

echo "serve_smoke: fleet routing, 429 backpressure and whole-fleet graceful drain verified"
