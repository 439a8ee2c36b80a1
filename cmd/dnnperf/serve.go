package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unicode/utf8"

	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/fleet"
	"repro/internal/gpu"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/units"
)

// The serve subcommand turns dnnperf into a small prediction service with a
// first-class telemetry surface:
//
//	GET  /healthz        liveness (always 200 while the process runs), JSON
//	GET  /readyz         readiness: 200 once the model is warmed, else 503
//	GET  /modelz         model registry introspection: version + history
//	POST /modelz         hot-swap: publish a core.Save model envelope
//	GET  /metrics        obs registry, Prometheus text exposition format
//	GET  /metrics.json   obs registry, JSON snapshot
//	GET  /predict        KW prediction: ?network=resnet50&batch=64
//	GET  /predict/batch  sweep prediction: ?network=resnet50&batches=1,2,4
//	POST /predict/batch  sweep prediction; JSON body names a zoo network or
//	                     carries an inline layer-by-layer network spec
//	GET  /debug/vars     expvar: the runtime's memstats and the command line
//	GET  /debug/pprof/   runtime profiling endpoints
//
// The KW model is fitted in the background at startup — or, with -model,
// read from a core.Save envelope file (or stdin, for -model -) — and
// published into a versioned registry, so /healthz responds immediately; the
// predict endpoints return 503 until the first snapshot lands. Later POSTs to
// /modelz hot-swap the serving model atomically — requests already past
// loadModel finish on the snapshot they loaded, so a swap never drops an
// in-flight prediction. SIGINT/SIGTERM trigger a graceful drain: the
// listener closes, in-flight requests get up to shutdownDrain to finish,
// then the process exits.
//
// Every endpoint runs under uniform protective limits: the http.Server
// enforces read-header/read/write/idle timeouts, and any request that
// carries a body (on any route) is capped by http.MaxBytesReader.
//
// Batch sizes must lie in [1, core.MaxBatch]: a malformed or non-positive
// batch is a 400, a batch above core.MaxBatch a 422 on both predict
// endpoints. An inline network spec is bounded further: a spec whose
// element or FLOP counts overflow int64 is a 422, and so is a batch beyond
// its compiled plan's own domain (core.Plan.MaxBatch).
//
// The single-prediction path is allocation-free in steady state: query
// parameters are read straight from the raw query string, the network is
// resolved through a sharded cache, the prediction comes off the compiled
// plan, and the response is rendered by hand into a pooled buffer.
// /predict/batch reads its POST body once and decodes it in one pass (see
// decodeBatchBody).

// Serve-layer metrics.
var (
	metricServeRequests = obs.Default().Counter("serve_requests_total",
		"HTTP requests handled by dnnperf serve.")
	metricServeErrors = obs.Default().Counter("serve_request_errors_total",
		"HTTP requests answered with a 4xx/5xx status.")
	metricServeLatency = obs.Default().Histogram("serve_request_seconds",
		"HTTP request handling latency.", nil)
	metricServePredictions = obs.Default().Counter("serve_predictions_total",
		"Successful predictions served (one per batch size on /predict/batch).")
	metricServe5xx = obs.Default().Counter("serve_request_5xx_total",
		"HTTP requests answered with a 5xx status (the SLO availability bad-event count).")
)

// shutdownDrain bounds how long a graceful shutdown waits for in-flight
// requests after SIGINT/SIGTERM.
const shutdownDrain = 10 * time.Second

// maxBatchBody bounds the /predict/batch POST body; larger bodies get 413.
const maxBatchBody = 1 << 20

// maxModelBody bounds the /modelz POST body (a full coefficient-set
// envelope, which runs larger than a prediction request).
const maxModelBody = 8 << 20

// Uniform per-request server deadlines. ReadHeaderTimeout bounds slow-loris
// header dribble; ReadTimeout and WriteTimeout bound one whole request and
// response so a stuck client cannot pin a handler goroutine forever.
const (
	serveReadHeaderTimeout = 5 * time.Second
	serveReadTimeout       = 30 * time.Second
	serveWriteTimeout      = 60 * time.Second
	serveIdleTimeout       = 120 * time.Second
)

// maxSweepPoints bounds the batches list of one sweep request.
const maxSweepPoints = 4096

// netKey keys the server-side network cache by name.
type netKey string

// Hash implements cache.Hasher (FNV-1a).
func (k netKey) Hash() uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(k); i++ {
		h ^= uint64(k[i])
		h *= 1099511628211
	}
	return h
}

// server holds the serving state: the lab (for networks), the device, and
// the versioned model registry the warm-up fit publishes into.
type server struct {
	lab   *bench.Lab
	gpu   gpu.Spec
	start time.Time

	reg      *registry.Registry
	modelErr atomic.Pointer[error]

	// envelope, when set, is the core.Save stream (serve -model) the
	// warm-up publishes instead of fitting; the warm-up closes it.
	envelope *os.File

	// nets caches name → network so the hot path never rebuilds a standard
	// model that fell outside the lab's sample.
	nets cache.Sharded[netKey, *dnn.Network]

	// tracer holds the replica's span buffer; reqTrack is the single
	// reserved track every request span lands on, so the process renders
	// as one timeline row. procName labels the process in merged traces.
	tracer   *obs.Tracer
	reqTrack int64
	procName string

	// slo tracks availability and latency burn rates over the serve-layer
	// request counters and latency histogram.
	slo *obs.SLOTracker
}

func newServer(l *bench.Lab, g gpu.Spec) *server {
	s := &server{
		lab: l, gpu: g, start: time.Now(),
		reg:      registry.New(),
		tracer:   obs.NewTracer(),
		procName: "replica",
	}
	s.reqTrack = s.tracer.ReserveTrack()
	s.slo = obs.NewSLOTracker(metricServeRequests.Value, metricServe5xx.Value, metricServeLatency)
	s.reg.RegisterMetrics("serve_model")
	return s
}

// runServe warms the model up in the background — fitting it, or reading
// the envelope at modelPath ("-" is stdin) when one is given — and serves
// until the process receives SIGINT or SIGTERM, then drains gracefully.
func runServe(l *bench.Lab, g gpu.Spec, addr, modelPath string) error {
	obs.SetEnabled(true)
	s := newServer(l, g)
	switch modelPath {
	case "":
	case "-":
		s.envelope = os.Stdin
	default:
		f, err := os.Open(modelPath)
		if err != nil {
			return err
		}
		s.envelope = f
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return s.serveUntil(ctx, addr, nil)
}

// fitServeModel is the pipeline a self-fitting server warms up with: the
// lab's dataset on g, its training split, and the KW fit at the training
// batch size. The fleet parent runs it once for all of its replicas.
func fitServeModel(l *bench.Lab, g gpu.Spec) (*core.KWModel, error) {
	ds, err := l.Dataset(g)
	if err != nil {
		return nil, err
	}
	train, _ := l.Split(ds)
	return core.FitKW(train, g.Name, bench.TrainBatch)
}

// startWarmup kicks off the background warm-up: it publishes the envelope
// when the server has one and fits the model otherwise, as version 1. A
// failure (a fit error, or an envelope that does not decode, EOF included)
// is stored for /readyz and /healthz to report, and nothing is published.
// It is a no-op when a snapshot is already installed (tests pre-fit
// servers).
func (s *server) startWarmup() {
	if s.reg.Current() != nil {
		return
	}
	go func() {
		sp := obs.StartSpan("serve model warm-up " + s.gpu.Name)
		defer sp.End()
		var err error
		if s.envelope != nil {
			_, _, err = s.publishEnvelope(http.MaxBytesReader(nil, s.envelope, maxModelBody), s.envelope.Name())
			s.envelope.Close()
		} else {
			var kw *core.KWModel
			if kw, err = fitServeModel(s.lab, s.gpu); err == nil {
				_, err = s.reg.Publish(kw, "warmup")
			}
		}
		if err != nil {
			s.modelErr.Store(&err)
		}
	}()
}

// publishEnvelope decodes a core.Save envelope from body, which its caller
// caps at maxModelBody with http.MaxBytesReader, and publishes the KW model
// it carries. It is the one decode path behind POST /modelz and serve
// -model. On failure it also returns the HTTP status the error maps to.
func (s *server) publishEnvelope(body io.Reader, source string) (*registry.Snapshot, int, error) {
	pred, err := core.Load(body)
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return nil, http.StatusRequestEntityTooLarge, fmt.Errorf("body exceeds %d bytes", maxModelBody)
		}
		return nil, http.StatusBadRequest, fmt.Errorf("decoding model envelope: %w", err)
	}
	kw, ok := pred.(*core.KWModel)
	if !ok {
		return nil, http.StatusUnprocessableEntity,
			fmt.Errorf("model kind %q cannot serve here; want a kw model", pred.Name())
	}
	snap, err := s.reg.Publish(kw, source)
	if err != nil {
		return nil, http.StatusUnprocessableEntity, err
	}
	return snap, http.StatusOK, nil
}

// handler assembles the route table.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.instrument("healthz", s.handleHealthz))
	mux.HandleFunc("/readyz", s.instrument("readyz", s.handleReadyz))
	mux.HandleFunc("/modelz", s.instrument("modelz", s.handleModelz))
	mux.HandleFunc("/metrics", s.instrument("metrics", s.handleMetrics))
	mux.HandleFunc("/metrics.json", s.instrument("metrics_json", s.handleMetricsJSON))
	mux.HandleFunc("/predict", s.instrument("predict", s.handlePredict))
	mux.HandleFunc("/predict/batch", s.instrument("predict_batch", s.handlePredictBatch))
	mux.HandleFunc("/sloz", s.instrument("sloz", s.handleSloz))
	mux.HandleFunc("/tracez.json", s.instrument("tracez", s.handleTracez))
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// serveUntil listens on addr and serves until ctx is cancelled, then shuts
// down gracefully (serveHTTP). The bound address is sent on ready (if
// non-nil) once the listener is up, which lets tests use ":0".
func (s *server) serveUntil(ctx context.Context, addr string, ready chan<- string) error {
	s.startWarmup()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.procName = "replica " + ln.Addr().String()
	go s.slo.Run(ctx, 2*time.Second)
	fmt.Printf("dnnperf: serving on http://%s (endpoints: /healthz /readyz /modelz /metrics /metrics.json /predict /predict/batch /sloz /tracez.json /debug/vars /debug/pprof/)\n", ln.Addr())
	if ready != nil {
		ready <- ln.Addr().String()
	}
	return serveHTTP(ctx, ln, s.handler(), nil)
}

// serveHTTP serves h on ln under the uniform server deadlines until ctx is
// cancelled, then drains in-flight requests for up to shutdownDrain. It
// returns early with the error the server fails with, or with the first
// non-nil error received from fail; a nil from fail is noted and serving
// goes on. A nil fail never fires.
func serveHTTP(ctx context.Context, ln net.Listener, h http.Handler, fail <-chan error) error {
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: serveReadHeaderTimeout,
		ReadTimeout:       serveReadTimeout,
		WriteTimeout:      serveWriteTimeout,
		IdleTimeout:       serveIdleTimeout,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	for ctx.Err() == nil {
		select {
		case err := <-errc:
			return err
		case err := <-fail:
			if err != nil {
				return err
			}
			fail = nil
		case <-ctx.Done():
		}
	}
	sctx, cancel := context.WithTimeout(context.Background(), shutdownDrain)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		return err
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// statusRecorder captures the handler's status code for error counting and
// carries the request's trace (nil when unsampled) so handlers can recover it
// through traceOf. Instances are pooled; instrument resets them per request.
type statusRecorder struct {
	http.ResponseWriter
	status int
	trace  *obs.RequestTrace
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

var recorderPool = sync.Pool{New: func() any { return new(statusRecorder) }}

// routeStats is one route's RED surface: request rate, error rate, latency.
// Handles are created once at route-table assembly; the registry dedups by
// name, so building several servers in one process shares the same handles.
type routeStats struct {
	requests *obs.Counter
	errors   *obs.Counter
	seconds  *obs.Histogram
}

func newRouteStats(route string) routeStats {
	return routeStats{
		requests: obs.Default().Counter("serve_route_"+route+"_requests_total",
			"Requests handled on the "+route+" route."),
		errors: obs.Default().Counter("serve_route_"+route+"_errors_total",
			"Requests answered with a 4xx/5xx status on the "+route+" route."),
		seconds: obs.Default().Histogram("serve_route_"+route+"_seconds",
			"Request handling latency on the "+route+" route.", nil),
	}
}

// instrument wraps a handler with the serve-layer and per-route metrics, the
// tracing sampling decision, and the uniform request-body cap. Bodyless
// requests (every steady-state GET) skip the MaxBytesReader wrap so the
// zero-allocation /predict path stays free; the sampling decision itself is
// a fixed-shape header parse that allocates only for sampled requests.
func (s *server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	rs := newRouteStats(route)
	return func(w http.ResponseWriter, req *http.Request) {
		tm := obs.StartTimer(metricServeLatency)
		rtm := obs.StartTimer(rs.seconds)
		metricServeRequests.Inc()
		rs.requests.Inc()
		rec := recorderPool.Get().(*statusRecorder)
		rec.ResponseWriter, rec.status = w, http.StatusOK
		rec.trace = s.sampleRequest(req)
		if rec.trace != nil {
			w.Header().Set(obs.TraceIDHeader, rec.trace.Context().TraceID())
		}
		if req.ContentLength != 0 && req.Body != nil && req.Body != http.NoBody {
			req.Body = http.MaxBytesReader(rec, req.Body, maxModelBody)
		}
		h(rec, req)
		rec.trace.Finish(route, rec.status)
		if rec.status >= 400 {
			metricServeErrors.Inc()
			rs.errors.Inc()
		}
		if rec.status >= 500 {
			metricServe5xx.Inc()
		}
		rec.ResponseWriter, rec.trace = nil, nil
		recorderPool.Put(rec)
		rtm.Stop()
		tm.Stop()
	}
}

// handleHealthz reports pure liveness. It always answers 200 while the
// process lives; model readiness stays in the body for dashboards, but
// orchestration that needs a routable signal must use /readyz, whose status
// code actually flips.
func (s *server) handleHealthz(w http.ResponseWriter, req *http.Request) {
	type health struct {
		Status        string  `json:"status"`
		ModelReady    bool    `json:"model_ready"`
		ModelVersion  uint64  `json:"model_version"`
		ModelError    string  `json:"model_error,omitempty"`
		GPU           string  `json:"gpu"`
		UptimeSeconds float64 `json:"uptime_seconds"`
	}
	h := health{Status: "ok", GPU: s.gpu.Name, UptimeSeconds: time.Since(s.start).Seconds()}
	if snap := s.reg.Current(); snap != nil {
		h.ModelReady = true
		h.ModelVersion = snap.Version
	}
	if errp := s.modelErr.Load(); errp != nil {
		h.Status = "degraded"
		h.ModelError = (*errp).Error()
	}
	writeJSON(w, http.StatusOK, h)
}

// handleReadyz reports readiness to serve predictions: 200 with the serving
// model version once the registry holds a snapshot, 503 before that (or
// after a failed warm-up). The fleet proxy routes on this endpoint.
func (s *server) handleReadyz(w http.ResponseWriter, req *http.Request) {
	type readiness struct {
		Ready        bool   `json:"ready"`
		ModelReady   bool   `json:"model_ready"`
		ModelVersion uint64 `json:"model_version"`
		ModelError   string `json:"model_error,omitempty"`
		GPU          string `json:"gpu"`
	}
	rd := readiness{GPU: s.gpu.Name}
	if snap := s.reg.Current(); snap != nil {
		rd.Ready, rd.ModelReady, rd.ModelVersion = true, true, snap.Version
		writeJSON(w, http.StatusOK, rd)
		return
	}
	if errp := s.modelErr.Load(); errp != nil {
		rd.ModelError = (*errp).Error()
	}
	writeJSON(w, http.StatusServiceUnavailable, rd)
}

// handleModelz is the registry surface. GET introspects the serving version
// and the bounded publication history; POST hot-swaps the serving model by
// publishing a core.Save envelope. Requests already holding the previous
// snapshot finish against it, so swaps are invisible to in-flight work.
func (s *server) handleModelz(w http.ResponseWriter, req *http.Request) {
	switch req.Method {
	case http.MethodGet:
		type modelz struct {
			Version uint64           `json:"version"`
			Ready   bool             `json:"ready"`
			GPU     string           `json:"gpu,omitempty"`
			Source  string           `json:"source,omitempty"`
			Kernels int              `json:"kernels,omitempty"`
			Groups  int              `json:"groups,omitempty"`
			History []registry.Entry `json:"history"`
		}
		mz := modelz{History: s.reg.History()}
		if snap := s.reg.Current(); snap != nil {
			mz.Version, mz.Ready, mz.Source = snap.Version, true, snap.Source
			mz.GPU = snap.Model.GPUName()
			mz.Kernels = snap.Model.KernelCount()
			mz.Groups = snap.Model.ModelCount()
		}
		writeJSON(w, http.StatusOK, mz)
	case http.MethodPost:
		snap, status, err := s.publishEnvelope(http.MaxBytesReader(w, req.Body, maxModelBody), "modelz-post")
		if err != nil {
			writeJSONError(w, status, err.Error())
			return
		}
		kw := snap.Model
		writeJSON(w, http.StatusOK, map[string]any{
			"version": snap.Version,
			"gpu":     kw.GPUName(),
			"kernels": kw.KernelCount(),
			"groups":  kw.ModelCount(),
		})
	default:
		w.Header().Set("Allow", "GET, POST")
		writeJSONError(w, http.StatusMethodNotAllowed, "use GET or POST")
	}
}

// handleMetrics serves the Prometheus text exposition.
func (s *server) handleMetrics(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := obs.Default().WritePrometheus(w); err != nil {
		// Headers are gone; nothing to do but note it.
		metricServeErrors.Inc()
	}
}

// handleMetricsJSON serves the registry snapshot as JSON.
func (s *server) handleMetricsJSON(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := obs.Default().WriteJSON(w); err != nil {
		metricServeErrors.Inc()
	}
}

// loadModel returns the current snapshot's model or writes the 503 warm-up
// response. The single atomic load pins the snapshot for the whole request:
// a concurrent hot-swap replaces the registry's current pointer but never
// touches the model this request already holds. The snapshot-present fast
// path is allocation-free; the 503 rendering below only runs while the
// model is still warming up (or its warm-up failed).
//
//dnnperf:allocfree
func (s *server) loadModel(w http.ResponseWriter) *core.KWModel {
	if snap := s.reg.Current(); snap != nil {
		return snap.Model
	}
	msg := "model warming up"
	if errp := s.modelErr.Load(); errp != nil {
		//lint:ignore allocfree the warm-up failure message renders only before the model is ready
		msg = "model warm-up failed: " + (*errp).Error()
	}
	//lint:ignore allocfree the 503 path runs only before the model is ready
	writeJSONError(w, http.StatusServiceUnavailable, msg)
	return nil
}

// network resolves a network by name through the server-side cache. The Get
// fast path keeps cache hits allocation-free (GetOrCompute's closure would
// cost one).
//
//dnnperf:allocfree
func (s *server) network(name string) (*dnn.Network, error) {
	if n, ok := s.nets.Get(netKey(name)); ok {
		return n, nil
	}
	//lint:ignore allocfree the GetOrCompute closure allocates only on the first request for a network
	return s.nets.GetOrCompute(netKey(name), func() (*dnn.Network, error) {
		return s.lab.Network(name)
	})
}

// handlePredict serves one KW prediction:
// /predict?network=resnet50&batch=64. The steady-state path allocates
// nothing: the always-on stage histograms go through the value-typed
// stageClock, and the per-stage spans (rt) fire only when the request
// arrived with a sampled traceparent — every rt method is a no-op on nil.
// Compilation and prediction are split so a sampled timeline attributes
// plan-cache misses; a plan error or a batch beyond the plan's domain takes
// PredictNetwork, whose uncached fallback returns the error the client sees.
func (s *server) handlePredict(w http.ResponseWriter, req *http.Request) {
	rt := traceOf(w)
	sc := startStages()
	m := s.loadModel(w)
	if m == nil {
		return
	}
	name, _ := fleet.QueryValue(req.URL.RawQuery, "network")
	if name == "" {
		writeJSONError(w, http.StatusBadRequest, "missing ?network=")
		return
	}
	batch := 512
	if b, ok := fleet.QueryValue(req.URL.RawQuery, "batch"); ok {
		v, err := strconv.Atoi(b)
		if err != nil || v <= 0 {
			writeJSONError(w, http.StatusBadRequest, "batch must be a positive integer")
			return
		}
		if v > core.MaxBatch {
			writeJSONError(w, http.StatusUnprocessableEntity, errBatchDomain.Error())
			return
		}
		batch = v
	}
	sc = sc.mark(metricStageParse)
	rt.Stage("parse")
	net, err := s.network(name)
	if err != nil {
		writeJSONError(w, http.StatusNotFound, err.Error())
		return
	}
	sc = sc.mark(metricStageCache)
	rt.Stage("cache_lookup")
	var pred units.Seconds
	if p, perr := m.CompiledPlan(net); perr == nil && batch <= p.MaxBatch() {
		rt.Stage("compile")
		pred = p.Predict(batch)
	} else {
		pred, err = m.PredictNetwork(net, batch)
	}
	rt.Stage("predict")
	if err != nil {
		writeJSONError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	sc = sc.mark(metricStagePredict)
	metricServePredictions.Inc()

	buf := bufPool.Get().(*bytes.Buffer)
	renderPredict(buf, m.Name(), m.GPUName(), name, batch, pred)
	setHeader(w.Header(), "Content-Type", "application/json")
	_, _ = w.Write(buf.Bytes())
	bufPool.Put(buf)
	sc.mark(metricStageRender)
	rt.Stage("render")
}

// renderPredict encodes the /predict response body into buf (resetting it
// first): pooled buffer, stack scratch, strconv append — the steady state
// allocates nothing.
//
//dnnperf:allocfree
func renderPredict(buf *bytes.Buffer, model, gpuName, network string, batch int, pred units.Seconds) {
	var scratch [32]byte
	buf.Reset()
	buf.WriteString(`{"model":`)
	writeJSONString(buf, model)
	buf.WriteString(`,"gpu":`)
	writeJSONString(buf, gpuName)
	buf.WriteString(`,"network":`)
	writeJSONString(buf, network)
	buf.WriteString(`,"batch":`)
	buf.Write(strconv.AppendInt(scratch[:0], int64(batch), 10))
	buf.WriteString(`,"predicted_ms":`)
	buf.Write(strconv.AppendFloat(scratch[:0], pred.Float64()*1e3, 'g', -1, 64))
	buf.WriteString("}\n")
}

// batchSpecLayer is one layer of an inline network spec. Field names follow
// the dnn.Layer fields; omitted inputs default to the previous layer (the
// network input for the first).
type batchSpecLayer struct {
	Kind        string `json:"kind"`
	Inputs      []int  `json:"inputs"`
	Cin         int    `json:"cin"`
	Cout        int    `json:"cout"`
	KH          int    `json:"kh"`
	KW          int    `json:"kw"`
	Stride      int    `json:"stride"`
	Pad         int    `json:"pad"`
	Groups      int    `json:"groups"`
	InFeatures  int    `json:"in_features"`
	OutFeatures int    `json:"out_features"`
	VocabSize   int    `json:"vocab_size"`
	EmbedDim    int    `json:"embed_dim"`
	Heads       int    `json:"heads"`
	TransposeB  bool   `json:"transpose_b"`
}

// batchSpec is an inline network description for clients predicting
// structures outside the zoo.
type batchSpec struct {
	Name       string           `json:"name"`
	InputShape []int            `json:"input_shape"`
	Layers     []batchSpecLayer `json:"layers"`
}

// batchRequest is the /predict/batch POST body. Exactly one of Network and
// NetworkSpec must be set.
type batchRequest struct {
	Network     string     `json:"network"`
	NetworkSpec *batchSpec `json:"network_spec"`
	Batches     []int      `json:"batches"`
}

// validKinds is the layer-kind vocabulary accepted in inline specs, keyed
// by name. The body decoder also interns kind strings through it.
var validKinds = func() map[string]dnn.Kind {
	m := make(map[string]dnn.Kind)
	for _, k := range dnn.Kinds() {
		m[string(k)] = k
	}
	return m
}()

// networkFromSpec builds an inline network spec and checks its layer graph.
// It leaves shape inference to the plan compile, which infers its own copy
// once; a spec whose shapes fail there fails the sweep, which the handler
// answers with 422 as it does a spec rejected here.
func networkFromSpec(spec *batchSpec) (*dnn.Network, error) {
	if len(spec.InputShape) == 0 {
		return nil, fmt.Errorf("network_spec.input_shape must be non-empty")
	}
	if len(spec.Layers) == 0 {
		return nil, fmt.Errorf("network_spec.layers must be non-empty")
	}
	name := spec.Name
	if name == "" {
		name = "custom"
	}
	n := dnn.New(name, "custom", dnn.TaskImageClassification, dnn.Shape(spec.InputShape))
	for i, ls := range spec.Layers {
		kind, ok := validKinds[ls.Kind]
		if !ok {
			return nil, fmt.Errorf("layer %d: unknown layer kind %q", i, ls.Kind)
		}
		inputs := ls.Inputs
		if len(inputs) == 0 {
			if i == 0 {
				inputs = []int{dnn.NetworkInput}
			} else {
				inputs = []int{i - 1}
			}
		}
		for _, in := range inputs {
			if in != dnn.NetworkInput && (in < 0 || in >= i) {
				return nil, fmt.Errorf("layer %d: input %d references a layer at or after itself", i, in)
			}
		}
		groups := ls.Groups
		if kind == dnn.KindConv2D && groups == 0 {
			groups = 1 // dense convolution, matching the Network.Conv builder
		}
		n.Add(&dnn.Layer{
			Kind: kind, Inputs: inputs,
			Cin: ls.Cin, Cout: ls.Cout, KH: ls.KH, KW: ls.KW,
			Stride: ls.Stride, Pad: ls.Pad, Groups: groups,
			InFeatures: ls.InFeatures, OutFeatures: ls.OutFeatures,
			VocabSize: ls.VocabSize, EmbedDim: ls.EmbedDim,
			Heads: ls.Heads, TransposeB: ls.TransposeB,
		})
	}
	return n, nil
}

// handlePredictBatch serves one batch-size sweep. GET names a zoo network
// (?network=resnet50&batches=1,2,4); POST carries JSON naming a network or
// an inline spec. The stage histograms split the request into decode (query
// or body → batchRequest), build (spec → network, or zoo lookup), predict
// (plan lookup or compile, then the sweep) and render. Concurrent identical
// requests share one plan compile through the plan cache's singleflight;
// the sweep itself is cheaper than coordinating them.
func (s *server) handlePredictBatch(w http.ResponseWriter, req *http.Request) {
	sc := startStages()
	m := s.loadModel(w)
	if m == nil {
		return
	}
	var breq batchRequest
	switch req.Method {
	case http.MethodGet:
		breq.Network, _ = fleet.QueryValue(req.URL.RawQuery, "network")
		if breq.Network == "" {
			writeJSONError(w, http.StatusBadRequest, "missing ?network=")
			return
		}
		csv, ok := fleet.QueryValue(req.URL.RawQuery, "batches")
		if !ok || csv == "" {
			writeJSONError(w, http.StatusBadRequest, "missing ?batches= (comma-separated positive integers)")
			return
		}
		var err error
		if breq.Batches, err = parseBatchesCSV(csv); err != nil {
			writeJSONError(w, batchErrorStatus(err), err.Error())
			return
		}
	case http.MethodPost:
		// The body is read whole, so anything over maxBatchBody is a 413
		// even when its JSON value ends early, and decoded in one pass.
		body := bufPool.Get().(*bytes.Buffer)
		body.Reset()
		_, err := body.ReadFrom(http.MaxBytesReader(w, req.Body, maxBatchBody))
		if err == nil {
			err = decodeBatchBody(body.Bytes(), &breq)
		}
		bufPool.Put(body)
		if err != nil {
			var mbe *http.MaxBytesError
			if errors.As(err, &mbe) {
				writeJSONError(w, http.StatusRequestEntityTooLarge,
					fmt.Sprintf("body exceeds %d bytes", maxBatchBody))
				return
			}
			writeJSONError(w, http.StatusBadRequest, "malformed JSON: "+err.Error())
			return
		}
		if err := validateBatches(breq.Batches); err != nil {
			writeJSONError(w, batchErrorStatus(err), err.Error())
			return
		}
	default:
		w.Header().Set("Allow", "GET, POST")
		writeJSONError(w, http.StatusMethodNotAllowed, "use GET or POST")
		return
	}
	sc = sc.mark(metricBatchStageDecode)

	var (
		name string
		net  *dnn.Network
	)
	switch {
	case breq.NetworkSpec != nil:
		n, err := networkFromSpec(breq.NetworkSpec)
		if err != nil {
			writeJSONError(w, http.StatusUnprocessableEntity, err.Error())
			return
		}
		net, name = n, n.Name
	case breq.Network != "":
		n, err := s.network(breq.Network)
		if err != nil {
			writeJSONError(w, http.StatusNotFound, err.Error())
			return
		}
		net, name = n, breq.Network
	default:
		writeJSONError(w, http.StatusBadRequest, "request must set network or network_spec")
		return
	}
	sc = sc.mark(metricBatchStageBuild)

	batches := breq.Batches
	out, err := m.PredictSweep(net, batches)
	if err != nil {
		writeJSONError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	metricServePredictions.Add(int64(len(batches)))
	sc = sc.mark(metricBatchStagePredict)

	var scratch [32]byte
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	buf.WriteString(`{"model":`)
	writeJSONString(buf, m.Name())
	buf.WriteString(`,"gpu":`)
	writeJSONString(buf, m.GPUName())
	buf.WriteString(`,"network":`)
	writeJSONString(buf, name)
	buf.WriteString(`,"batches":[`)
	for i, b := range batches {
		if i > 0 {
			buf.WriteByte(',')
		}
		buf.Write(strconv.AppendInt(scratch[:0], int64(b), 10))
	}
	buf.WriteString(`],"predicted_ms":[`)
	for i, sec := range out {
		if i > 0 {
			buf.WriteByte(',')
		}
		buf.Write(strconv.AppendFloat(scratch[:0], sec.Float64()*1e3, 'g', -1, 64))
	}
	buf.WriteString("]}\n")
	setHeader(w.Header(), "Content-Type", "application/json")
	_, _ = w.Write(buf.Bytes())
	bufPool.Put(buf)
	sc.mark(metricBatchStageRender)
}

// errBatchDomain marks a well-formed batch size above core.MaxBatch, where
// plan arithmetic is undefined: the request parses but cannot be answered
// (422), unlike a malformed batch list (400).
var errBatchDomain = fmt.Errorf("batch must be at most %d", core.MaxBatch)

// batchErrorStatus maps a batch validation error to its HTTP status.
func batchErrorStatus(err error) int {
	if errors.Is(err, errBatchDomain) {
		return http.StatusUnprocessableEntity
	}
	return http.StatusBadRequest
}

// validateBatches checks a sweep's batch list.
func validateBatches(batches []int) error {
	if len(batches) == 0 {
		return fmt.Errorf("batches must be a non-empty array of positive integers")
	}
	if len(batches) > maxSweepPoints {
		return fmt.Errorf("batches lists %d points, limit is %d", len(batches), maxSweepPoints)
	}
	for _, b := range batches {
		if b <= 0 {
			return fmt.Errorf("batches must be positive integers, got %d", b)
		}
		if b > core.MaxBatch {
			return fmt.Errorf("%w, got %d", errBatchDomain, b)
		}
	}
	return nil
}

// parseBatchesCSV parses "1,2,4" into a validated batch list.
func parseBatchesCSV(csv string) ([]int, error) {
	out := make([]int, 0, 8)
	for csv != "" {
		var tok string
		if i := strings.IndexByte(csv, ','); i >= 0 {
			tok, csv = csv[:i], csv[i+1:]
		} else {
			tok, csv = csv, ""
		}
		v, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil {
			return nil, fmt.Errorf("batches must be comma-separated positive integers, got %q", tok)
		}
		out = append(out, v)
	}
	if err := validateBatches(out); err != nil {
		return nil, err
	}
	return out, nil
}

// bufPool recycles response-encoding buffers across requests.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// setHeader sets a header only when it is not already present with the same
// value, so a reused header map costs nothing after the first request.
//
//dnnperf:allocfree
func setHeader(h http.Header, key, value string) {
	if vs, ok := h[key]; ok && len(vs) == 1 && vs[0] == value {
		return
	}
	//lint:ignore allocfree Header.Set runs once per connection; later requests hit the equal-value fast path
	h.Set(key, value)
}

// writeJSONString appends s as a JSON string literal. Plain ASCII (the
// overwhelmingly common case for model and network names) is written
// directly; anything needing escapes goes through strconv.
//
//dnnperf:allocfree
func writeJSONString(buf *bytes.Buffer, s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c == '"' || c == '\\' || c >= utf8.RuneSelf {
			buf.Write(strconv.AppendQuote(make([]byte, 0, len(s)+8), s))
			return
		}
	}
	buf.WriteByte('"')
	buf.WriteString(s)
	buf.WriteByte('"')
}

// writeJSON renders non-hot-path responses (health, errors) with the
// standard encoder.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeJSONError(w http.ResponseWriter, status int, msg string) {
	type errBody struct {
		Error string `json:"error"`
	}
	writeJSON(w, status, errBody{Error: msg})
}
