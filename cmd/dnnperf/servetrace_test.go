package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"repro/internal/obs"
)

// tracedRequest builds a /predict request carrying a sampled traceparent.
func tracedRequest(target string, sc obs.SpanContext) *http.Request {
	req := httptest.NewRequest(http.MethodGet, target, nil)
	req.Header.Set("traceparent", sc.Traceparent())
	return req
}

// eventsForTrace fetches the replica's /tracez.json and returns the spans
// whose trace_id argument matches id.
func eventsForTrace(t *testing.T, h http.Handler, id string) []obs.TraceEvent {
	t.Helper()
	w := get(t, h, "/tracez.json")
	if w.Code != http.StatusOK {
		t.Fatalf("/tracez.json status %d", w.Code)
	}
	pt, err := obs.ReadProcessTrace(w.Body)
	if err != nil {
		t.Fatalf("decoding process trace: %v", err)
	}
	var out []obs.TraceEvent
	for _, ev := range pt.Events {
		for _, a := range ev.Args {
			if a.Key == "trace_id" && a.Val == id {
				out = append(out, ev)
			}
		}
	}
	return out
}

// TestServeTracePropagation drives a sampled request through the full
// handler and checks the replica echoes the trace ID and records the
// per-stage spans under it.
func TestServeTracePropagation(t *testing.T) {
	s := fittedServer(t)
	h := s.handler()
	sc := obs.NewSpanContext()

	w := httptest.NewRecorder()
	h.ServeHTTP(w, tracedRequest("/predict?network=resnet50&batch=8", sc))
	if w.Code != http.StatusOK {
		t.Fatalf("traced /predict status %d (body %s)", w.Code, w.Body)
	}
	if got := w.Header().Get(obs.TraceIDHeader); got != sc.TraceID() {
		t.Fatalf("%s = %q, want %q", obs.TraceIDHeader, got, sc.TraceID())
	}

	evs := eventsForTrace(t, h, sc.TraceID())
	byName := map[string]obs.TraceEvent{}
	for _, ev := range evs {
		byName[ev.Name] = ev
	}
	for _, stage := range []string{"parse", "cache_lookup", "compile", "predict", "render"} {
		ev, ok := byName[stage]
		if !ok {
			t.Fatalf("stage span %q missing; got %d spans %v", stage, len(evs), names(evs))
		}
		if ev.Cat != obs.StageCat {
			t.Errorf("span %q category %q, want %q", stage, ev.Cat, obs.StageCat)
		}
	}
	reqSpan, ok := byName["predict"]
	if !ok {
		t.Fatal("request span missing")
	}
	// Both the whole-request span and the predict stage exist; the request
	// span is the RequestCat one covering all stages.
	found := false
	for _, ev := range evs {
		if ev.Name == "predict" && ev.Cat == obs.RequestCat {
			reqSpan, found = ev, true
		}
	}
	if !found {
		t.Fatalf("no %s-category request span for the trace", obs.RequestCat)
	}
	for _, a := range reqSpan.Args {
		if a.Key == "status" && a.Val != "200" {
			t.Errorf("request span status arg %q, want 200", a.Val)
		}
	}
}

func names(evs []obs.TraceEvent) []string {
	out := make([]string, len(evs))
	for i, ev := range evs {
		out[i] = ev.Cat + ":" + ev.Name
	}
	return out
}

// TestServeTraceIgnoresUnsampled checks that unsampled and malformed
// traceparent headers do not start a trace and echo no header.
func TestServeTraceIgnoresUnsampled(t *testing.T) {
	s := fittedServer(t)
	h := s.handler()
	unsampled := obs.NewSpanContext()
	unsampled.Flags = 0
	for name, header := range map[string]string{
		"unsampled": unsampled.Traceparent(),
		"malformed": "00-zzzz-zzzz-01",
		"empty":     "",
	} {
		req := httptest.NewRequest(http.MethodGet, "/predict?network=resnet50&batch=8", nil)
		if header != "" {
			req.Header.Set("traceparent", header)
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d", name, w.Code)
		}
		if got := w.Header().Get(obs.TraceIDHeader); got != "" {
			t.Errorf("%s: unexpected %s header %q", name, obs.TraceIDHeader, got)
		}
	}
}

// TestServePredictUnsampledZeroAlloc pins the tracing-enabled steady state:
// an unsampled /predict request must not allocate even with observation on.
func TestServePredictUnsampledZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; bench_compare.sh gates BenchmarkServePredict at 0 allocs/op")
	}
	s := fittedServer(t)
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	h := s.handler()
	req := httptest.NewRequest(http.MethodGet, "/predict?network=resnet50&batch=64", nil)
	w := &nullResponseWriter{h: make(http.Header)}
	h.ServeHTTP(w, req)
	if w.status != http.StatusOK {
		t.Fatalf("warm-up status %d", w.status)
	}
	if avg := testing.AllocsPerRun(200, func() {
		h.ServeHTTP(w, req)
	}); avg != 0 {
		t.Fatalf("unsampled /predict allocates %.2f allocs/op with tracing enabled, want 0", avg)
	}
}

// TestServeSlozEndpoint checks the burn-rate report decodes with the
// serving objectives and windows.
func TestServeSlozEndpoint(t *testing.T) {
	h := fittedServer(t).handler()
	w := get(t, h, "/sloz")
	if w.Code != http.StatusOK {
		t.Fatalf("/sloz status %d", w.Code)
	}
	var rep obs.SLOReport
	if err := json.Unmarshal(w.Body.Bytes(), &rep); err != nil {
		t.Fatalf("decoding /sloz: %v", err)
	}
	if rep.AvailabilityObjective != 0.999 || rep.LatencyObjective != 0.99 {
		t.Fatalf("objectives %v/%v, want 0.999/0.99", rep.AvailabilityObjective, rep.LatencyObjective)
	}
	var windows []string
	for _, w := range rep.Windows {
		windows = append(windows, w.Window)
	}
	if want := []string{"1m0s", "5m0s", "30m0s"}; !slices.Equal(windows, want) {
		t.Fatalf("windows %q, want %q", windows, want)
	}
}

// TestServeRouteMetrics checks the per-route RED counters move with traffic.
func TestServeRouteMetrics(t *testing.T) {
	s := fittedServer(t)
	h := s.handler()
	rs := newRouteStats("predict") // registry dedup: same handles as the route table
	reqBefore, errBefore := rs.requests.Value(), rs.errors.Value()
	if w := get(t, h, "/predict?network=resnet50&batch=8"); w.Code != http.StatusOK {
		t.Fatalf("/predict status %d", w.Code)
	}
	if w := get(t, h, "/predict?network=no-such-net"); w.Code != http.StatusNotFound {
		t.Fatalf("bad /predict status %d", w.Code)
	}
	if got := rs.requests.Value() - reqBefore; got != 2 {
		t.Errorf("route requests moved by %d, want 2", got)
	}
	if got := rs.errors.Value() - errBefore; got != 1 {
		t.Errorf("route errors moved by %d, want 1", got)
	}
}

// BenchmarkServePredictTraced measures /predict with tracing live at the
// fleet's default sampling rate: one request in 64 carries a sampled
// traceparent. Steady state must stay at 0 allocs/op (the sampled iteration
// amortizes below 0.5 allocs/op) and within a few percent of the untraced
// benchmark.
func BenchmarkServePredictTraced(b *testing.B) {
	s := fittedServer(b)
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	h := s.handler()
	plain := httptest.NewRequest(http.MethodGet, "/predict?network=resnet50&batch=64", nil)
	traced := tracedRequest("/predict?network=resnet50&batch=64", obs.NewSpanContext())
	w := &nullResponseWriter{h: make(http.Header)}
	h.ServeHTTP(w, plain)
	if w.status != http.StatusOK {
		b.Fatalf("warm-up status %d", w.status)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := plain
		if i%64 == 0 {
			req = traced
		}
		h.ServeHTTP(w, req)
	}
}
