package main

import (
	"net/http"
	"time"

	"repro/internal/obs"
	"repro/internal/units"
)

// Replica-side request tracing and stage attribution.
//
// The replica never makes its own sampling decision: the fleet proxy is the
// head of the request, so a request is traced here exactly when it arrives
// with a valid sampled `traceparent` header. The decision is a header map
// read plus a fixed-shape parse — no allocation on the unsampled path, which
// keeps /predict at 0 allocs/op with tracing enabled (the benchmark gate).
// Sampled requests allocate one obs.RequestTrace and record per-stage spans
// (parse, cache, compile, predict, render) onto the server's single reserved
// track, so a merged fleet timeline shows one row per replica.
//
// Stage latency *histograms* are separate from spans and always on: every
// request feeds serve_stage_*_seconds through a value-typed stageClock, so
// the attribution a /metricsz scrape aggregates does not depend on sampling.

// Stage-latency histograms: always-on per-stage attribution for /predict.
var (
	metricStageParse = obs.Default().Histogram("serve_stage_parse_seconds",
		"Time spent parsing and validating the request.", nil)
	metricStageCache = obs.Default().Histogram("serve_stage_cache_seconds",
		"Time spent resolving the network through the server-side cache.", nil)
	metricStagePredict = obs.Default().Histogram("serve_stage_predict_seconds",
		"Time spent in model prediction (including plan compilation).", nil)
	metricStageRender = obs.Default().Histogram("serve_stage_render_seconds",
		"Time spent rendering and writing the response body.", nil)
)

// Stage-latency histograms for /predict/batch, the route that compiles.
var (
	metricBatchStageDecode = obs.Default().Histogram("serve_batch_stage_decode_seconds",
		"/predict/batch: time spent decoding the query or body into a request.", nil)
	metricBatchStageBuild = obs.Default().Histogram("serve_batch_stage_build_seconds",
		"/predict/batch: time spent building an inline spec's network or looking up a zoo network.", nil)
	metricBatchStagePredict = obs.Default().Histogram("serve_batch_stage_predict_seconds",
		"/predict/batch: time spent in plan lookup or compilation and the sweep.", nil)
	metricBatchStageRender = obs.Default().Histogram("serve_batch_stage_render_seconds",
		"/predict/batch: time spent rendering and writing the response body.", nil)
)

// sampleRequest is the replica's sampling branch: a request is traced iff it
// carries a valid sampled traceparent, read by its canonical header-map key
// (no MIME canonicalization). The unsampled path allocates nothing.
//
//dnnperf:allocfree
func (s *server) sampleRequest(req *http.Request) *obs.RequestTrace {
	vs := req.Header[obs.TraceparentHeader]
	if len(vs) == 0 {
		return nil
	}
	sc, ok := obs.ParseTraceparent(vs[0])
	if !ok || sc.Flags&obs.FlagSampled == 0 {
		return nil
	}
	// Child: the replica's spans get their own span ID within the trace.
	//lint:ignore allocfree span bookkeeping allocates only for sampled requests
	return s.tracer.TraceRequest(s.reqTrack, sc.Child())
}

// traceOf recovers the request's trace from the instrumented writer; nil for
// unsampled requests (and for writers that aren't instrument's recorder).
//
//dnnperf:allocfree
func traceOf(w http.ResponseWriter) *obs.RequestTrace {
	if rec, ok := w.(*statusRecorder); ok {
		return rec.trace
	}
	return nil
}

// stageClock marks the always-on stage histograms. It is a value type that
// never escapes: each mark returns the advanced clock, so the hot path costs
// two clock reads per stage and zero allocations. The zero stageClock (obs
// disabled) makes every mark a no-op.
type stageClock struct{ last time.Time }

// startStages begins stage attribution if observation is enabled.
//
//dnnperf:allocfree
func startStages() stageClock {
	if !obs.Enabled() {
		return stageClock{}
	}
	return stageClock{last: time.Now()}
}

// mark records the time since the previous mark into h and advances.
//
//dnnperf:allocfree
func (c stageClock) mark(h *obs.Histogram) stageClock {
	if c.last.IsZero() {
		return c
	}
	now := time.Now()
	h.Observe(units.Seconds(now.Sub(c.last).Seconds()))
	c.last = now
	return c
}

// handleSloz serves the replica's SLO burn-rate report.
func (s *server) handleSloz(w http.ResponseWriter, req *http.Request) {
	writeJSON(w, http.StatusOK, s.slo.Report())
}

// handleTracez serves the replica's span buffer as a ProcessTrace document
// for `dnnperf fleet -trace-o` to merge.
func (s *server) handleTracez(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = obs.WriteProcessTrace(w, s.tracer.ProcessTrace(s.procName))
}
