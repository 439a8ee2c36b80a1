// Package fleet turns N dnnperf serve replicas into one serving tier. A
// stdlib-only reverse proxy shards prediction requests across the replicas
// with a consistent-hash ring keyed by the request's network identity — the
// same key the replicas' plan caches use — so each replica's singleflight
// plan-cache LRU holds a (mostly) disjoint slice of the key space and the
// fleet's aggregate cache capacity scales linearly with replica count.
//
// The proxy is health-aware and self-protecting:
//
//   - Routing only considers replicas whose /readyz reports a warmed model;
//     a background prober refreshes readiness continuously.
//   - A request is forwarded on its handler's own goroutine, over a
//     per-replica pool of keep-alive connections (at most the in-flight
//     cap idle per replica); forwardTimeout is the exchange's connection
//     deadline. A pooled connection that fails before any response byte
//     arrives was closed by the replica while idle, and is redialed once
//     on the same replica.
//   - Other connection-level failures (refused, reset, timed out) mark the
//     replica unready immediately and retry the next ring owner, at most
//     maxRetries times. A client that disconnects aborts the exchange
//     without marking the replica unready.
//   - Admission control: each replica has an in-flight cap. A request whose
//     owner is saturated spills to the next ready owner on the ring; when
//     the whole fleet is above the high watermark the proxy sheds the
//     request with 429 and a Retry-After hint instead of queueing — the
//     open-loop-safe response to compile queues backing up.
//
// Endpoints served by the proxy itself: /healthz (proxy liveness),
// /readyz (≥1 ready replica), /fleetz (full fleet introspection JSON).
// Everything else is forwarded.
package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/rng"
)

// Proxy-level observability.
var (
	metricRequests = obs.Default().Counter("fleet_proxy_requests_total",
		"Requests handled by the fleet proxy.")
	metricForwarded = obs.Default().Counter("fleet_forwarded_total",
		"Requests forwarded to a replica.")
	metricRetries = obs.Default().Counter("fleet_retries_total",
		"Forward attempts retried on another replica after a connection failure.")
	metricSpills = obs.Default().Counter("fleet_spills_total",
		"Requests routed past their saturated ring owner to another ready replica.")
	metricRejected = obs.Default().Counter("fleet_admission_rejected_total",
		"Requests shed with 429 by admission control.")
	metricUnavailable = obs.Default().Counter("fleet_unavailable_total",
		"Requests answered 503 because no ready replica existed.")
	metricProxyErrors = obs.Default().Counter("fleet_proxy_errors_total",
		"Requests answered 502 after exhausting every forward attempt.")
	metricLatency = obs.Default().Histogram("fleet_proxy_seconds",
		"Proxy request latency, including the replica round trip.", nil)
	metricInflight = obs.Default().Gauge("fleet_inflight_requests",
		"Requests currently being forwarded, fleet-wide.")
)

// vnodesPerReplica is the ring's virtual-node fan-out. 64 points per replica
// keeps the key-space split within a few percent of even for small fleets.
const vnodesPerReplica = 64

// maxBufferedBody bounds the request body the proxy will buffer for
// retryable forwarding; longer bodies get 413 (mirroring the replicas' cap).
const maxBufferedBody = 1 << 20

// Proxy tuning shared by every fleet; only the in-flight cap is New's to
// choose.
const (
	// defaultMaxInflight is the per-replica in-flight cap New applies for
	// a non-positive argument.
	defaultMaxInflight = 256
	// maxRetries bounds how many additional replicas a request may try
	// after a connection-level failure.
	maxRetries = 2
	// healthInterval is the readiness probe period.
	healthInterval = 250 * time.Millisecond
	// forwardTimeout bounds one forward attempt — dial, request, response
	// head and body — as the connection's deadline.
	forwardTimeout = 30 * time.Second
	// retryAfter is the hint, in seconds, returned with 429 responses.
	retryAfter = "1"
	// sampleEvery is the head-based trace sampling period: 1 in
	// sampleEvery forwarded requests gets a full trace (the first always
	// does). Requests arriving with a valid sampled traceparent header are
	// always traced.
	sampleEvery = 64
	// slowSample is the latency past which an unsampled request still gets
	// a post-hoc summary span.
	slowSample = 250 * time.Millisecond
	// processName labels the proxy's track group in merged Perfetto
	// timelines.
	processName = "proxy"
)

// replica is one backend and its routing state.
type replica struct {
	addr     string // host:port
	ready    atomic.Bool
	inflight atomic.Int64
	// modelVersion mirrors the replica's /readyz model version for /fleetz.
	modelVersion atomic.Uint64

	// idle holds the keep-alive connections between exchanges, most
	// recently used last.
	mu   sync.Mutex
	idle []*backendConn
}

// ringPoint is one virtual node: a hash position owned by a replica.
type ringPoint struct {
	hash uint64
	idx  int // index into Proxy.replicas
}

// Proxy is the sharding reverse proxy. Create with New, then Start the
// health prober; the Proxy itself is an http.Handler.
type Proxy struct {
	// maxInflight caps concurrently forwarded requests per replica.
	// Admission control sheds load with 429 once every ready replica is at
	// its cap (the queue-depth high watermark). It also caps each
	// replica's idle keep-alive connections.
	maxInflight int
	// timeout is the forward deadline, forwardTimeout outside tests.
	timeout  time.Duration
	replicas []*replica
	ring     []ringPoint
	// walks[i*n:(i+1)*n], n = len(replicas), is the ring walk from point i:
	// the distinct replicas in ring order. 64·n² ints, computed once.
	walks  []int
	probes *http.Client

	// tracer holds the proxy's own span buffer; reqTrack is the single
	// reserved track every request span lands on (one timeline row per
	// process in the merged view), sampleN drives head sampling.
	tracer   *obs.Tracer
	reqTrack int64
	sampleN  atomic.Uint64
	slo      *obs.SLOTracker

	wg sync.WaitGroup
}

// New builds a proxy over the replica addresses (host:port each) with a
// per-replica in-flight cap; maxInflight ≤ 0 means 256.
func New(addrs []string, maxInflight int) (*Proxy, error) {
	if len(addrs) == 0 {
		return nil, errors.New("fleet: no replicas")
	}
	if maxInflight <= 0 {
		maxInflight = defaultMaxInflight
	}
	p := &Proxy{
		maxInflight: maxInflight,
		timeout:     forwardTimeout,
		probes:      &http.Client{Timeout: 2 * time.Second},
		tracer:      obs.NewTracer(),
	}
	p.reqTrack = p.tracer.ReserveTrack()
	// Availability counts 502 (exhausted forwards) and 503 (no ready
	// replica) as bad; 429 is deliberate shedding, not a broken promise, so
	// it burns no availability budget.
	p.slo = obs.NewSLOTracker(metricRequests.Value,
		func() int64 { return metricProxyErrors.Value() + metricUnavailable.Value() },
		metricLatency)
	for i, addr := range addrs {
		if addr == "" {
			return nil, fmt.Errorf("fleet: replica %d has an empty address", i)
		}
		p.replicas = append(p.replicas, &replica{addr: addr})
		for v := 0; v < vnodesPerReplica; v++ {
			// FNV-1a over near-identical short strings ("host:port#3" vs
			// "host:port#4") leaves its entropy clustered; the splitmix64
			// finalizer spreads the points so every replica owns a fair
			// slice of the key space.
			p.ring = append(p.ring, ringPoint{hash: rng.Mix(fnv64(fmt.Sprintf("%s#%d", addr, v))), idx: i})
		}
	}
	sort.Slice(p.ring, func(i, j int) bool { return p.ring[i].hash < p.ring[j].hash })
	n := len(p.replicas)
	p.walks = make([]int, 0, len(p.ring)*n)
	seen := make([]bool, n)
	for i := range p.ring {
		clear(seen)
		for j, found := i, 0; found < n; j++ {
			if idx := p.ring[j%len(p.ring)].idx; !seen[idx] {
				seen[idx] = true
				p.walks = append(p.walks, idx)
				found++
			}
		}
	}
	return p, nil
}

// Start launches the readiness prober and the SLO burn-rate sampler; both
// stop when ctx is cancelled. Wait returns once both goroutines have exited.
func (p *Proxy) Start(ctx context.Context) {
	p.probeAll()
	p.wg.Add(2)
	go func() {
		defer p.wg.Done()
		t := time.NewTicker(healthInterval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				p.probeAll()
			}
		}
	}()
	go func() {
		defer p.wg.Done()
		p.slo.Run(ctx, 2*time.Second)
	}()
}

// Wait blocks until the prober and the SLO sampler have stopped.
func (p *Proxy) Wait() { p.wg.Wait() }

// probeAll refreshes every replica's readiness from its /readyz endpoint.
func (p *Proxy) probeAll() {
	var wg sync.WaitGroup
	for _, r := range p.replicas {
		wg.Add(1)
		go func(r *replica) {
			defer wg.Done()
			r.ready.Store(p.probe(r))
		}(r)
	}
	wg.Wait()
}

// probe asks one replica for readiness and records its model version.
func (p *Proxy) probe(r *replica) bool {
	resp, err := p.probes.Get("http://" + r.addr + "/readyz")
	if err != nil {
		return false
	}
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return false
	}
	var body struct {
		ModelVersion uint64 `json:"model_version"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&body); err == nil {
		r.modelVersion.Store(body.ModelVersion)
	}
	return true
}

// ReadyCount returns how many replicas currently pass readiness.
func (p *Proxy) ReadyCount() int {
	n := 0
	for _, r := range p.replicas {
		if r.ready.Load() {
			n++
		}
	}
	return n
}

// WaitReady blocks until want replicas are ready or ctx expires.
func (p *Proxy) WaitReady(ctx context.Context, want int) error {
	for {
		p.probeAll()
		if p.ReadyCount() >= want {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("fleet: %d/%d replicas ready: %w", p.ReadyCount(), want, ctx.Err())
		case <-time.After(250 * time.Millisecond):
		}
	}
}

// fnv64 is the FNV-1a digest of s, the hashing the replicas' caches build
// on.
func fnv64(s string) uint64 { return uint64(rng.NewFNV().Str(s)) }

// shardKey extracts the routing key for a request: the network identity.
// GET requests carry it as ?network=; buffered POST bodies are scanned for
// the "network" field, falling back to hashing the whole body (an inline
// network_spec IS the network identity). Requests with no network identity
// (metrics, health) hash their path so they spread deterministically.
func shardKey(r *http.Request, body []byte) uint64 {
	if net, _ := QueryValue(r.URL.RawQuery, "network"); net != "" {
		return fnv64(net)
	}
	if len(body) > 0 {
		if net := jsonStringField(body, "network"); net != "" {
			return fnv64(net)
		}
		return uint64(rng.NewFNV().Bytes(body))
	}
	return fnv64(r.URL.Path)
}

// QueryValue returns the value of the first pair in the raw query whose key
// is key, and whether there is one. A bare key reads as ""; a value is
// unescaped, or kept raw when it does not unescape, on a rare slow path
// through url.QueryUnescape. Reading the raw string avoids the url.Values map
// a URL.Query() call would allocate. The proxy's shard key and the replica's
// GET handlers read their parameters with it.
//
//dnnperf:allocfree
func QueryValue(rawQuery, key string) (string, bool) {
	for len(rawQuery) > 0 {
		var pair string
		if i := strings.IndexByte(rawQuery, '&'); i >= 0 {
			pair, rawQuery = rawQuery[:i], rawQuery[i+1:]
		} else {
			pair, rawQuery = rawQuery, ""
		}
		if pair == "" {
			continue // like url.ParseQuery: "&&" is no key, not the empty key
		}
		eq := strings.IndexByte(pair, '=')
		if eq < 0 {
			if pair == key {
				return "", true
			}
			continue
		}
		if pair[:eq] != key {
			continue
		}
		v := pair[eq+1:]
		if strings.IndexByte(v, '%') >= 0 || strings.IndexByte(v, '+') >= 0 {
			//lint:ignore allocfree escaped query values take the rare decode slow path
			if u, err := url.QueryUnescape(v); err == nil {
				return u, true
			}
		}
		return v, true
	}
	return "", false
}

// jsonStringField scans raw JSON for a top-level-ish `"name": "value"` pair
// without decoding the document. Good enough for routing: a false miss just
// hashes the body instead.
func jsonStringField(body []byte, name string) string {
	needle := []byte(`"` + name + `"`)
	i := bytes.Index(body, needle)
	if i < 0 {
		return ""
	}
	rest := body[i+len(needle):]
	j := bytes.IndexByte(rest, ':')
	if j < 0 {
		return ""
	}
	rest = bytes.TrimLeft(rest[j+1:], " \t\r\n")
	if len(rest) == 0 || rest[0] != '"' {
		return ""
	}
	rest = rest[1:]
	k := bytes.IndexByte(rest, '"')
	if k < 0 {
		return ""
	}
	return string(rest[:k])
}

// owners yields the ring walk for a hash: the owner replica first, then each
// distinct successor. The returned slice is indices into p.replicas, shared
// by every caller: read it, never write it.
func (p *Proxy) owners(hash uint64) []int {
	hash = rng.Mix(hash) // spread clustered key hashes before the ring walk
	// First ring point with hash >= key, wrapping.
	i := sort.Search(len(p.ring), func(i int) bool { return p.ring[i].hash >= hash })
	if i == len(p.ring) {
		i = 0
	}
	n := len(p.replicas)
	return p.walks[i*n : (i+1)*n : (i+1)*n]
}

// ServeHTTP implements the proxy.
func (p *Proxy) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	metricRequests.Inc()
	tm := obs.StartTimer(metricLatency)
	defer tm.Stop()

	switch req.URL.Path {
	case "/healthz":
		p.writeHealth(w)
		return
	case "/readyz":
		p.writeReady(w)
		return
	case "/fleetz":
		p.writeFleetz(w)
		return
	case "/metricsz":
		p.writeMetricsz(w)
		return
	case "/sloz":
		p.writeSloz(w)
		return
	case "/tracez.json":
		p.writeTracez(w)
		return
	}

	// Head-based sampling: the decision is one counter increment; all span
	// allocation happens only on the sampled path. The trace ID is echoed
	// before any write so the client always sees it.
	rt := p.sampleRequest(req)
	unsampledStart := p.tracer.Now()
	if rt != nil {
		w.Header().Set(obs.TraceIDHeader, rt.Context().TraceID())
	}
	// A relay that breaks off mid-body unwinds with http.ErrAbortHandler;
	// the request is still traced, as a 502.
	status := http.StatusBadGateway
	defer func() {
		if rt != nil {
			rt.Finish(req.Method+" "+req.URL.Path, status)
		} else {
			p.recordBadUnsampled(req.Method, req.URL.Path, status, unsampledStart, p.tracer.Now())
		}
	}()
	status = p.route(w, req, rt)
}

// bodyPool recycles the buffers route reads request bodies into.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// route buffers the body, walks the ring, and forwards; it returns the
// status committed to the client. rt is nil for unsampled requests.
func (p *Proxy) route(w http.ResponseWriter, req *http.Request, rt *obs.RequestTrace) int {
	// Buffer the body once so retries can replay it.
	var body []byte
	if req.Body != nil && req.Body != http.NoBody {
		buf := bodyPool.Get().(*bytes.Buffer)
		buf.Reset()
		defer bodyPool.Put(buf)
		if n := req.ContentLength; n > 0 && n <= maxBufferedBody {
			buf.Grow(int(n) + bytes.MinRead) // room for the read that sees EOF
		}
		_, err := buf.ReadFrom(io.LimitReader(req.Body, maxBufferedBody+1))
		req.Body.Close()
		if err != nil {
			writeError(w, http.StatusBadGateway, "reading request body: "+err.Error())
			return http.StatusBadGateway
		}
		if buf.Len() > maxBufferedBody {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("body exceeds %d bytes", maxBufferedBody))
			return http.StatusRequestEntityTooLarge
		}
		body = buf.Bytes()
	}

	owners := p.owners(shardKey(req, body))
	rt.Stage("shard_pick")

	// Admission + readiness walk: the first ready owner under its in-flight
	// cap gets the request; saturated owners are spilled past. If a ready
	// owner exists but all are saturated → 429; if none is ready → 503.
	attempts := 0
	sawReady := false
	sawSpill := false
	for _, idx := range owners {
		r := p.replicas[idx]
		if !r.ready.Load() {
			continue
		}
		sawReady = true
		if r.inflight.Load() >= int64(p.maxInflight) {
			sawSpill = true
			continue
		}
		if attempts > maxRetries {
			break
		}
		if attempts > 0 {
			metricRetries.Inc()
		}
		if sawSpill {
			metricSpills.Inc()
			sawSpill = false
		}
		attempts++
		rt.Stage("admission")
		hopStart := p.tracer.Now()
		status, retryable := p.forward(w, req, r, body, rt)
		hop := "upstream_wait"
		if attempts > 1 {
			hop = "retry_hop"
		}
		rt.Span(hop, hopStart, obs.Arg{Key: "replica", Val: r.addr}, obs.Arg{Key: "attempt", Val: strconv.Itoa(attempts)})
		if !retryable {
			return status
		}
		// Connection-level failure: the prober will confirm, but don't wait.
		r.ready.Store(false)
	}

	if attempts > 0 {
		metricProxyErrors.Inc()
		writeError(w, http.StatusBadGateway, "every forward attempt failed")
		return http.StatusBadGateway
	}
	rt.Stage("admission")
	if sawReady {
		metricRejected.Inc()
		w.Header().Set("Retry-After", retryAfter)
		writeError(w, http.StatusTooManyRequests, "fleet saturated: all ready replicas at their in-flight cap")
		return http.StatusTooManyRequests
	}
	metricUnavailable.Inc()
	writeError(w, http.StatusServiceUnavailable, "no ready replica")
	return http.StatusServiceUnavailable
}

// writeHealth reports proxy liveness.
func (p *Proxy) writeHealth(w http.ResponseWriter) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"replicas": len(p.replicas),
		"ready":    p.ReadyCount(),
	})
}

// writeReady answers 200 when at least one replica can take traffic.
func (p *Proxy) writeReady(w http.ResponseWriter) {
	ready := p.ReadyCount()
	status := http.StatusOK
	if ready == 0 {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, map[string]any{
		"ready":    ready > 0,
		"replicas": len(p.replicas),
		"warmed":   ready,
	})
}

// ReplicaStatus is one row of the /fleetz introspection response.
type ReplicaStatus struct {
	Addr         string `json:"addr"`
	Ready        bool   `json:"ready"`
	Inflight     int64  `json:"inflight"`
	ModelVersion uint64 `json:"model_version"`
}

// Fleetz snapshots per-replica routing state: address, readiness, in-flight
// count, and the model version the last probe observed.
func (p *Proxy) Fleetz() []ReplicaStatus {
	rows := make([]ReplicaStatus, len(p.replicas))
	for i, r := range p.replicas {
		rows[i] = ReplicaStatus{
			Addr:         r.addr,
			Ready:        r.ready.Load(),
			Inflight:     r.inflight.Load(),
			ModelVersion: r.modelVersion.Load(),
		}
	}
	return rows
}

// writeFleetz dumps the routing state.
func (p *Proxy) writeFleetz(w http.ResponseWriter) {
	writeJSON(w, http.StatusOK, map[string]any{
		"replicas":     p.Fleetz(),
		"vnodes":       vnodesPerReplica,
		"max_inflight": p.maxInflight,
		"retries":      maxRetries,
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
