package fleet

import (
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/units"
)

// traceRecordingReplica wraps a fakeReplica to capture the traceparent
// headers it receives.
type traceRecordingReplica struct {
	*fakeReplica
	mu      sync.Mutex
	parents []string
}

func newTraceRecordingReplica(t *testing.T, name string) *traceRecordingReplica {
	r := &traceRecordingReplica{fakeReplica: newFakeReplica(t, name)}
	r.handler = func(w http.ResponseWriter, req *http.Request) {
		r.mu.Lock()
		r.parents = append(r.parents, req.Header.Get("traceparent"))
		r.mu.Unlock()
		w.Header().Set("X-Replica-Name", r.name)
		fmt.Fprint(w, r.name)
	}
	return r
}

func (r *traceRecordingReplica) seenParents() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, len(r.parents))
	copy(out, r.parents)
	return out
}

// eventsByName indexes a process trace for assertions.
func eventsByName(pt obs.ProcessTrace) map[string][]obs.TraceEvent {
	out := map[string][]obs.TraceEvent{}
	for _, ev := range pt.Events {
		out[ev.Name] = append(out[ev.Name], ev)
	}
	return out
}

func argOf(ev obs.TraceEvent, key string) string {
	for _, a := range ev.Args {
		if a.Key == key {
			return a.Val
		}
	}
	return ""
}

func TestTraceIDEchoAndPropagation(t *testing.T) {
	a := newTraceRecordingReplica(t, "a")
	b := newTraceRecordingReplica(t, "b")
	p, front := startProxy(t, 0, a.fakeReplica, b.fakeReplica)

	resp, err := http.Get(front.URL + "/predict?network=resnet50&batch=8")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	traceID := resp.Header.Get(obs.TraceIDHeader)
	if len(traceID) != 32 {
		t.Fatalf("X-Trace-Id = %q, want 32 hex digits", traceID)
	}

	// The replica that served it must have received a traceparent carrying
	// the same trace ID.
	parents := append(a.seenParents(), b.seenParents()...)
	if len(parents) != 1 {
		t.Fatalf("replicas saw %d requests, want 1", len(parents))
	}
	sc, ok := obs.ParseTraceparent(parents[0])
	if !ok {
		t.Fatalf("replica received malformed traceparent %q", parents[0])
	}
	if sc.TraceID() != traceID {
		t.Fatalf("replica trace ID %s != echoed %s", sc.TraceID(), traceID)
	}
	if sc.Flags&obs.FlagSampled == 0 {
		t.Fatal("propagated context not flagged sampled")
	}

	// The proxy's span buffer must hold the request span and the stage
	// spans, all tagged with the trace ID.
	evs := eventsByName(p.ProcessTrace())
	for _, name := range []string{"GET /predict", "shard_pick", "admission", "upstream_wait"} {
		matches := evs[name]
		if len(matches) == 0 {
			t.Fatalf("proxy trace missing %q; have %v", name, names(p.ProcessTrace()))
		}
		if got := argOf(matches[0], "trace_id"); got != traceID {
			t.Fatalf("%s span trace_id = %q, want %q", name, got, traceID)
		}
	}
}

func names(pt obs.ProcessTrace) []string {
	var out []string
	for _, ev := range pt.Events {
		out = append(out, ev.Name)
	}
	return out
}

func TestSamplingPeriod(t *testing.T) {
	a := newFakeReplica(t, "a")
	_, front := startProxy(t, 0, a)

	var sampled []int
	for i := 0; i < 2*sampleEvery; i++ {
		resp, err := http.Get(front.URL + "/predict?network=resnet50")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.Header.Get(obs.TraceIDHeader) != "" {
			sampled = append(sampled, i)
		}
	}
	if want := []int{0, sampleEvery}; !slices.Equal(sampled, want) {
		t.Fatalf("sampled requests %v, want %v (1 in %d, first always)", sampled, want, sampleEvery)
	}
}

func TestIncomingTraceparentContinuation(t *testing.T) {
	a := newTraceRecordingReplica(t, "a")
	// Within the first sampleEvery requests only the continuation (and the
	// always-sampled first request) can produce traces.
	_, front := startProxy(t, 0, a.fakeReplica)

	// Burn the always-sampled first request.
	resp, err := http.Get(front.URL + "/predict?network=warm")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	upstream := obs.NewSpanContext()
	req, _ := http.NewRequest(http.MethodGet, front.URL+"/predict?network=resnet50", nil)
	req.Header.Set("traceparent", upstream.Traceparent())
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(obs.TraceIDHeader); got != upstream.TraceID() {
		t.Fatalf("continued trace echoed %q, want upstream %q", got, upstream.TraceID())
	}

	// A malformed header must not be continued.
	req, _ = http.NewRequest(http.MethodGet, front.URL+"/predict?network=resnet50", nil)
	req.Header.Set("traceparent", "00-not-a-trace-1")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(obs.TraceIDHeader); got != "" {
		t.Fatalf("malformed traceparent produced a trace %q", got)
	}

	// An unsampled (flags 00) upstream context must not force sampling.
	unsampled := obs.NewSpanContext()
	unsampled.Flags = 0
	req, _ = http.NewRequest(http.MethodGet, front.URL+"/predict?network=resnet50", nil)
	req.Header.Set("traceparent", unsampled.Traceparent())
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(obs.TraceIDHeader); got != "" {
		t.Fatalf("unsampled traceparent produced a trace %q", got)
	}
}

func TestTracePropagationAcrossRetry(t *testing.T) {
	a := newTraceRecordingReplica(t, "a")
	b := newTraceRecordingReplica(t, "b")
	p, front := probedProxy(t, 0, a.fakeReplica, b.fakeReplica)

	// Find the ring owner for the key and kill it, so the request retries
	// onto the survivor.
	owner, ok := ownerOf(p, "resnet50")
	if !ok {
		t.Fatal("no owner")
	}
	victim, survivor := a, b
	if owner == b.addr() {
		victim, survivor = b, a
	}
	victim.srv.Close()

	resp, err := http.Get(front.URL + "/predict?network=resnet50")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 after retry", resp.StatusCode)
	}
	traceID := resp.Header.Get(obs.TraceIDHeader)
	if traceID == "" {
		t.Fatal("no trace ID on retried request")
	}

	parents := survivor.seenParents()
	if len(parents) != 1 {
		t.Fatalf("survivor saw %d requests, want 1", len(parents))
	}
	sc, ok := obs.ParseTraceparent(parents[0])
	if !ok || sc.TraceID() != traceID {
		t.Fatalf("survivor traceparent %q does not carry trace %s", parents[0], traceID)
	}

	evs := eventsByName(p.ProcessTrace())
	if len(evs["upstream_wait"]) == 0 || len(evs["retry_hop"]) == 0 {
		t.Fatalf("retried trace lacks upstream_wait+retry_hop spans; have %v", names(p.ProcessTrace()))
	}
	hop := evs["retry_hop"][0]
	if argOf(hop, "replica") != survivor.addr() {
		t.Fatalf("retry_hop replica = %q, want survivor %q", argOf(hop, "replica"), survivor.addr())
	}
	if argOf(hop, "trace_id") != traceID {
		t.Fatalf("retry_hop trace_id = %q, want %q", argOf(hop, "trace_id"), traceID)
	}
}

func TestTracePropagationAcrossSpill(t *testing.T) {
	a := newTraceRecordingReplica(t, "a")
	b := newTraceRecordingReplica(t, "b")
	p, front := probedProxy(t, 1, a.fakeReplica, b.fakeReplica)

	owner, ok := ownerOf(p, "resnet50")
	if !ok {
		t.Fatal("no owner")
	}
	// Saturate the owner directly (in-package) so the request spills.
	var spilledTo *traceRecordingReplica
	for i, r := range p.replicas {
		if r.addr == owner {
			p.replicas[i].inflight.Add(1)
			defer p.replicas[i].inflight.Add(-1)
		}
	}
	if owner == a.addr() {
		spilledTo = b
	} else {
		spilledTo = a
	}

	resp, err := http.Get(front.URL + "/predict?network=resnet50")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 after spill", resp.StatusCode)
	}
	traceID := resp.Header.Get(obs.TraceIDHeader)
	parents := spilledTo.seenParents()
	if len(parents) != 1 {
		t.Fatalf("spill target saw %d requests, want 1", len(parents))
	}
	if sc, ok := obs.ParseTraceparent(parents[0]); !ok || sc.TraceID() != traceID {
		t.Fatalf("spill target traceparent %q does not carry trace %s", parents[0], traceID)
	}
	if metricSpills.Value() == 0 {
		t.Fatal("spill not counted")
	}
}

// metricsReplica answers /metrics.json with a registry of its own.
func metricsReplica(t *testing.T, name string, reqs int64, lats []units.Seconds) *fakeReplica {
	reg := obs.NewRegistry()
	reg.Counter("serve_predictions_total", "").Add(reqs)
	h := reg.Histogram("serve_request_seconds", "", nil)
	for _, l := range lats {
		h.Observe(l)
	}
	f := newFakeReplica(t, name)
	f.handler = func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path == "/metrics.json" {
			w.Header().Set("Content-Type", "application/json")
			_ = reg.WriteJSON(w)
			return
		}
		fmt.Fprint(w, name)
	}
	return f
}

func TestMetricszMergesReplicaBuckets(t *testing.T) {
	a := metricsReplica(t, "a", 3, []units.Seconds{1e-6, 2e-4, 0.3})
	b := metricsReplica(t, "b", 9, []units.Seconds{1e-6, 1e-6, 7})
	_, front := startProxy(t, 0, a, b)

	status, body := get(t, front.URL+"/metricsz")
	if status != http.StatusOK {
		t.Fatalf("/metricsz status %d: %s", status, body)
	}
	var doc struct {
		Replicas int              `json:"replicas"`
		Scraped  int              `json:"scraped"`
		Failed   []string         `json:"failed"`
		Skipped  []string         `json:"skipped"`
		Metrics  []obs.MetricJSON `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("decoding /metricsz: %v", err)
	}
	if doc.Replicas != 2 || doc.Scraped != 2 || len(doc.Failed) != 0 || len(doc.Skipped) != 0 {
		t.Fatalf("scrape summary %+v", doc)
	}

	var hist, counter *obs.MetricJSON
	for i := range doc.Metrics {
		switch doc.Metrics[i].Name {
		case "serve_request_seconds":
			hist = &doc.Metrics[i]
		case "serve_predictions_total":
			counter = &doc.Metrics[i]
		}
	}
	if counter == nil || *counter.Value != 12 {
		t.Fatalf("merged counter = %+v, want 12", counter)
	}
	if hist == nil || *hist.Count != 6 {
		t.Fatalf("merged histogram count = %+v, want 6", hist)
	}
	// Exact bucket-wise sum: recompute what each replica reported and
	// compare bucket by bucket.
	aReg := obs.NewRegistry()
	ah := aReg.Histogram("serve_request_seconds", "", nil)
	for _, l := range []units.Seconds{1e-6, 2e-4, 0.3} {
		ah.Observe(l)
	}
	bReg := obs.NewRegistry()
	bh := bReg.Histogram("serve_request_seconds", "", nil)
	for _, l := range []units.Seconds{1e-6, 1e-6, 7} {
		bh.Observe(l)
	}
	var aSnap, bSnap obs.MetricSnapshot
	for _, m := range aReg.Snapshot() {
		if m.Name == "serve_request_seconds" {
			aSnap = m
		}
	}
	for _, m := range bReg.Snapshot() {
		if m.Name == "serve_request_seconds" {
			bSnap = m
		}
	}
	if len(hist.Buckets) != len(aSnap.Buckets) {
		t.Fatalf("bucket count %d != %d", len(hist.Buckets), len(aSnap.Buckets))
	}
	for i := range hist.Buckets {
		want := aSnap.Buckets[i].Cumulative + bSnap.Buckets[i].Cumulative
		if hist.Buckets[i].Cumulative != want {
			t.Fatalf("bucket %d: merged %d, want %d", i, hist.Buckets[i].Cumulative, want)
		}
	}
}

func TestMetricszReportsFailedScrapes(t *testing.T) {
	a := metricsReplica(t, "a", 1, nil)
	b := newFakeReplica(t, "b") // no /metrics.json: default handler answers 200 text
	b.handler = func(w http.ResponseWriter, req *http.Request) {
		http.Error(w, "no metrics", http.StatusNotFound)
	}
	_, front := startProxy(t, 0, a, b)

	status, body := get(t, front.URL+"/metricsz")
	if status != http.StatusOK {
		t.Fatalf("/metricsz status %d", status)
	}
	var doc struct {
		Scraped int      `json:"scraped"`
		Failed  []string `json:"failed"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Scraped != 1 || len(doc.Failed) != 1 || doc.Failed[0] != b.addr() {
		t.Fatalf("scrape summary %+v, want 1 scraped and b failed", doc)
	}
}

func TestSlozEndpoint(t *testing.T) {
	a := newFakeReplica(t, "a")
	_, front := startProxy(t, 0, a)

	// Serve a little traffic so the report has requests to window.
	for i := 0; i < 3; i++ {
		resp, err := http.Get(front.URL + "/predict?network=resnet50")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	status, body := get(t, front.URL+"/sloz")
	if status != http.StatusOK {
		t.Fatalf("/sloz status %d: %s", status, body)
	}
	var rep obs.SLOReport
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("decoding /sloz: %v", err)
	}
	if rep.AvailabilityObjective <= 0 || rep.LatencyObjective <= 0 {
		t.Fatalf("objectives missing: %+v", rep)
	}
	if len(rep.Windows) == 0 {
		t.Fatal("no windows in /sloz report")
	}
	for _, w := range rep.Windows {
		if w.AvailabilityBurnRate < 0 || w.LatencyBurnRate < 0 {
			t.Fatalf("negative burn rate: %+v", w)
		}
	}
}

func TestTracezEndpoint(t *testing.T) {
	a := newFakeReplica(t, "a")
	_, front := startProxy(t, 0, a)

	resp, err := http.Get(front.URL + "/predict?network=resnet50")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	status, body := get(t, front.URL+"/tracez.json")
	if status != http.StatusOK {
		t.Fatalf("/tracez.json status %d", status)
	}
	pt, err := obs.ReadProcessTrace(strings.NewReader(body))
	if err != nil {
		t.Fatalf("decoding /tracez.json: %v", err)
	}
	if pt.Process != "proxy" {
		t.Fatalf("process = %q", pt.Process)
	}
	if len(pt.Events) == 0 {
		t.Fatal("no events in proxy trace")
	}
}
