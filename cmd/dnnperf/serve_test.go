package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dnn"
	"repro/internal/gpu"
	"repro/internal/obs"
	"repro/internal/zoo"
)

// fittedServer returns a shared server whose KW model is already fitted from
// a tiny two-network dataset, so handler tests skip the full warm-up.
var (
	fittedOnce sync.Once
	fittedSrv  *server
	fittedErr  error
)

func fittedServer(t testing.TB) *server {
	t.Helper()
	fittedOnce.Do(func() {
		nets := []*dnn.Network{zoo.MustResNet(50), zoo.MustResNet(18)}
		opt := dataset.DefaultBuildOptions()
		opt.Batches = 3
		opt.Warmup = 1
		opt.E2EBatchSizes = []int{512}
		ds, _, err := dataset.Build(nets, []gpu.Spec{gpu.A100}, opt)
		if err != nil {
			fittedErr = err
			return
		}
		kw, err := core.FitKW(ds, "A100", 512)
		if err != nil {
			fittedErr = err
			return
		}
		s := newServer(bench.NewQuickLab(), gpu.A100)
		if _, err := s.reg.Publish(kw, "test-prefit"); err != nil {
			fittedErr = err
			return
		}
		fittedSrv = s
	})
	if fittedErr != nil {
		t.Fatal(fittedErr)
	}
	return fittedSrv
}

func get(t *testing.T, h http.Handler, target string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, target, nil))
	return w
}

func post(t *testing.T, h http.Handler, target, body string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, target, strings.NewReader(body)))
	return w
}

func TestServePredictBeforeWarmup(t *testing.T) {
	s := newServer(bench.NewQuickLab(), gpu.A100)
	h := s.handler()
	for _, target := range []string{"/predict?network=resnet50", "/predict/batch?network=resnet50&batches=1,2"} {
		if w := get(t, h, target); w.Code != http.StatusServiceUnavailable {
			t.Fatalf("%s before warm-up: status %d, want 503", target, w.Code)
		}
	}
}

func TestServePredictErrors(t *testing.T) {
	h := fittedServer(t).handler()
	cases := []struct {
		target string
		want   int
	}{
		{"/predict", http.StatusBadRequest},                             // missing network
		{"/predict?network=resnet50&batch=zero", http.StatusBadRequest}, // non-numeric batch
		{"/predict?network=resnet50&batch=-4", http.StatusBadRequest},   // negative batch
		{"/predict?network=no-such-net", http.StatusNotFound},           // unknown network
		{"/predict/batch?network=resnet50", http.StatusBadRequest},      // missing batches
		{"/predict/batch?batches=1,2", http.StatusBadRequest},           // missing network
		{"/predict/batch?network=resnet50&batches=", http.StatusBadRequest},
		{"/predict/batch?network=resnet50&batches=1,x", http.StatusBadRequest},
		{"/predict/batch?network=resnet50&batches=0,2", http.StatusBadRequest},
		{"/predict/batch?network=no-such-net&batches=1,2", http.StatusNotFound},
	}
	for _, c := range cases {
		if w := get(t, h, c.target); w.Code != c.want {
			t.Errorf("GET %s: status %d, want %d (body %s)", c.target, w.Code, c.want, w.Body)
		}
	}
}

// wideConvSpec's convolution fits int64 at batch 1, but its drivers leave
// int64 long before batch 2^20, the sweep's second point.
const wideConvSpec = `{"network_spec":{"input_shape":[3,65536,65536],"layers":[{"kind":"Conv2D","cin":3,"cout":1048576,"kh":3,"kw":3,"stride":1,"pad":1}]},"batches":[1,1048576]}`

// hugeInputSpec's per-sample element count already overflows int64.
const hugeInputSpec = `{"network_spec":{"input_shape":[2147483647,2147483647,2147483647],"layers":[{"kind":"ReLU"}]},"batches":[1048576]}`

// TestServePredictBatchPlanDomain: a spec is answered within its own plan's
// domain and refused with 422 beyond it, instead of answering a wrapped
// prediction.
func TestServePredictBatchPlanDomain(t *testing.T) {
	s := fittedServer(t)
	h := s.handler()
	if w := post(t, h, "/predict/batch", wideConvSpec); w.Code != http.StatusUnprocessableEntity ||
		!strings.Contains(w.Body.String(), "exceeds the maximum") {
		t.Fatalf("sweep reaching past the plan's domain: status %d (%s), want 422", w.Code, w.Body)
	}

	var spec batchRequest
	if err := json.Unmarshal([]byte(wideConvSpec), &spec); err != nil {
		t.Fatal(err)
	}
	net, err := networkFromSpec(spec.NetworkSpec)
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.reg.Current().Model.CompilePlan(net)
	if err != nil {
		t.Fatal(err)
	}
	limit := p.MaxBatch()
	if limit <= 1 || limit >= core.MaxBatch {
		t.Fatalf("plan domain %d, want inside (1, %d)", limit, core.MaxBatch)
	}
	in := fmt.Sprintf(`{"network_spec":{"input_shape":[3,65536,65536],"layers":[{"kind":"Conv2D","cin":3,"cout":1048576,"kh":3,"kw":3,"stride":1,"pad":1}]},"batches":[1,%d]}`, limit)
	w := post(t, h, "/predict/batch", in)
	if w.Code != http.StatusOK {
		t.Fatalf("sweep up to the plan's domain %d: status %d (%s)", limit, w.Code, w.Body)
	}
	var resp struct {
		PredictedMs []float64 `json:"predicted_ms"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	// Time grows with the batch: a wrapped driver would break the order.
	if len(resp.PredictedMs) != 2 || !(resp.PredictedMs[1] > resp.PredictedMs[0]) {
		t.Fatalf("predicted_ms %v, want growing with the batch", resp.PredictedMs)
	}
	past := strings.Replace(in, fmt.Sprintf("[1,%d]", limit), fmt.Sprintf("[1,%d]", limit+1), 1)
	if w := post(t, h, "/predict/batch", past); w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("batch %d past the plan's domain: status %d (%s), want 422", limit+1, w.Code, w.Body)
	}
}

func TestServePredictBatchPostErrors(t *testing.T) {
	h := fittedServer(t).handler()
	cases := []struct {
		name, body string
		want       int
	}{
		{"malformed JSON", `{"network": "resnet50", "batches": [1`, http.StatusBadRequest},
		{"no batches", `{"network": "resnet50"}`, http.StatusBadRequest},
		{"bad batch value", `{"network": "resnet50", "batches": [1, -2]}`, http.StatusBadRequest},
		{"neither network nor spec", `{"batches": [1, 2]}`, http.StatusBadRequest},
		{"unknown network", `{"network": "no-such-net", "batches": [1]}`, http.StatusNotFound},
		{"unknown layer kind", `{"batches": [1], "network_spec": {"name": "x", "input_shape": [3, 8, 8],
			"layers": [{"kind": "Convolution9D", "cin": 3, "cout": 4, "kh": 3, "kw": 3, "stride": 1, "pad": 1}]}}`,
			http.StatusUnprocessableEntity},
		{"empty spec layers", `{"batches": [1], "network_spec": {"name": "x", "input_shape": [3, 8, 8], "layers": []}}`,
			http.StatusUnprocessableEntity},
		{"forward input reference", `{"batches": [1], "network_spec": {"name": "x", "input_shape": [3, 8, 8],
			"layers": [{"kind": "ReLU", "inputs": [5]}]}}`, http.StatusUnprocessableEntity},
		{"batch beyond the plan's domain", wideConvSpec, http.StatusUnprocessableEntity},
		{"per-sample element count overflow", hugeInputSpec, http.StatusUnprocessableEntity},
	}
	for _, c := range cases {
		if w := post(t, h, "/predict/batch", c.body); w.Code != c.want {
			t.Errorf("%s: status %d, want %d (body %s)", c.name, w.Code, c.want, w.Body)
		}
	}

	// Oversized body: pad past the 1 MiB cap.
	big := `{"network": "resnet50", "batches": [1], "pad": "` + strings.Repeat("x", maxBatchBody) + `"}`
	if w := post(t, h, "/predict/batch", big); w.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413", w.Code)
	}

	// Wrong method.
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPut, "/predict/batch", strings.NewReader("{}")))
	if w.Code != http.StatusMethodNotAllowed {
		t.Errorf("PUT: status %d, want 405", w.Code)
	}
}

func TestServePredictMatchesModel(t *testing.T) {
	s := fittedServer(t)
	h := s.handler()
	m := s.reg.Current().Model
	net, err := s.network("resnet50")
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.PredictNetwork(net, 64)
	if err != nil {
		t.Fatal(err)
	}

	w := get(t, h, "/predict?network=resnet50&batch=64")
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var resp struct {
		Model       string  `json:"model"`
		GPU         string  `json:"gpu"`
		Network     string  `json:"network"`
		Batch       int     `json:"batch"`
		PredictedMs float64 `json:"predicted_ms"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad JSON %q: %v", w.Body, err)
	}
	if resp.Model != m.Name() || resp.GPU != "A100" || resp.Network != "resnet50" || resp.Batch != 64 {
		t.Fatalf("response header fields: %+v", resp)
	}
	// The shortest-round-trip float encoding must parse back bit-identical.
	if resp.PredictedMs != want.Float64()*1e3 {
		t.Fatalf("predicted_ms = %v, want %v", resp.PredictedMs, want.Float64()*1e3)
	}
}

// TestServePredictMaxBatch pins the batch domain's edge on both endpoints:
// core.MaxBatch is answered with the model's prediction, MaxBatch+1 with
// 422 instead of a wrapped-around driver clamped to the floor.
func TestServePredictMaxBatch(t *testing.T) {
	s := fittedServer(t)
	h := s.handler()
	m := s.reg.Current().Model
	net, err := s.network("resnet50")
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.PredictNetwork(net, core.MaxBatch)
	if err != nil {
		t.Fatal(err)
	}
	max, over := strconv.Itoa(core.MaxBatch), strconv.Itoa(core.MaxBatch+1)

	w := get(t, h, "/predict?network=resnet50&batch="+max)
	if w.Code != http.StatusOK {
		t.Fatalf("batch=MaxBatch: status %d: %s", w.Code, w.Body)
	}
	var resp struct {
		Batch       int     `json:"batch"`
		PredictedMs float64 `json:"predicted_ms"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad JSON %q: %v", w.Body, err)
	}
	if resp.Batch != core.MaxBatch || resp.PredictedMs != want.Float64()*1e3 {
		t.Fatalf("batch=MaxBatch: got %+v, want predicted_ms %v", resp, want.Float64()*1e3)
	}
	var sweep struct {
		PredictedMs []float64 `json:"predicted_ms"`
	}
	w = post(t, h, "/predict/batch", `{"network": "resnet50", "batches": [`+max+`]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("POST batches=[MaxBatch]: status %d: %s", w.Code, w.Body)
	}
	if err := json.Unmarshal(w.Body.Bytes(), &sweep); err != nil {
		t.Fatalf("bad JSON %q: %v", w.Body, err)
	}
	if len(sweep.PredictedMs) != 1 || sweep.PredictedMs[0] != want.Float64()*1e3 {
		t.Fatalf("POST batches=[MaxBatch]: predicted_ms %v, want [%v]", sweep.PredictedMs, want.Float64()*1e3)
	}

	for _, c := range []struct {
		name string
		w    *httptest.ResponseRecorder
	}{
		{"GET /predict", get(t, h, "/predict?network=resnet50&batch="+over)},
		{"GET /predict/batch", get(t, h, "/predict/batch?network=resnet50&batches=1,"+over)},
		{"POST /predict/batch", post(t, h, "/predict/batch", `{"network": "resnet50", "batches": [1, `+over+`]}`)},
	} {
		if c.w.Code != http.StatusUnprocessableEntity {
			t.Errorf("%s at MaxBatch+1: status %d, want 422 (body %s)", c.name, c.w.Code, c.w.Body)
		}
	}
}

// TestServePredictBatchMatchesLoop pins the endpoint to the looped
// single-prediction path bit for bit, for both GET and POST.
func TestServePredictBatchMatchesLoop(t *testing.T) {
	s := fittedServer(t)
	h := s.handler()
	m := s.reg.Current().Model
	net, err := s.network("resnet50")
	if err != nil {
		t.Fatal(err)
	}
	batches := []int{1, 2, 7, 64, 512}
	want := make([]float64, len(batches))
	for i, b := range batches {
		sec, err := m.PredictNetwork(net, b)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = sec.Float64() * 1e3
	}

	check := func(t *testing.T, w *httptest.ResponseRecorder) {
		t.Helper()
		if w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body)
		}
		var resp struct {
			Network     string    `json:"network"`
			Batches     []int     `json:"batches"`
			PredictedMs []float64 `json:"predicted_ms"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatalf("bad JSON %q: %v", w.Body, err)
		}
		if resp.Network != "resnet50" || len(resp.Batches) != len(batches) {
			t.Fatalf("response %+v", resp)
		}
		for i := range batches {
			if resp.Batches[i] != batches[i] {
				t.Fatalf("batches[%d] = %d, want %d", i, resp.Batches[i], batches[i])
			}
			if resp.PredictedMs[i] != want[i] {
				t.Fatalf("predicted_ms[%d] = %v, want %v", i, resp.PredictedMs[i], want[i])
			}
		}
	}

	t.Run("GET", func(t *testing.T) {
		check(t, get(t, h, "/predict/batch?network=resnet50&batches=1,2,7,64,512"))
	})
	t.Run("POST", func(t *testing.T) {
		check(t, post(t, h, "/predict/batch", `{"network": "resnet50", "batches": [1, 2, 7, 64, 512]}`))
	})
}

// TestServePredictBatchInlineSpec predicts a network the zoo does not have.
func TestServePredictBatchInlineSpec(t *testing.T) {
	h := fittedServer(t).handler()
	body := `{
		"batches": [1, 4],
		"network_spec": {
			"name": "tiny-cnn",
			"input_shape": [3, 16, 16],
			"layers": [
				{"kind": "Conv2D", "cin": 3, "cout": 8, "kh": 3, "kw": 3, "stride": 1, "pad": 1},
				{"kind": "ReLU"},
				{"kind": "GlobalAvgPool"},
				{"kind": "Flatten"},
				{"kind": "Linear", "in_features": 8, "out_features": 10}
			]
		}
	}`
	w := post(t, h, "/predict/batch", body)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var resp struct {
		Network     string    `json:"network"`
		PredictedMs []float64 `json:"predicted_ms"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad JSON %q: %v", w.Body, err)
	}
	if resp.Network != "tiny-cnn" || len(resp.PredictedMs) != 2 {
		t.Fatalf("response %+v", resp)
	}
	for i, ms := range resp.PredictedMs {
		if ms <= 0 {
			t.Fatalf("predicted_ms[%d] = %v, want positive", i, ms)
		}
	}
}

// TestServePredictBatchStageHistograms: one inline-spec POST and one zoo GET
// each move every /predict/batch stage histogram by exactly one
// observation.
func TestServePredictBatchStageHistograms(t *testing.T) {
	h := fittedServer(t).handler()
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	stages := map[string]*obs.Histogram{
		"decode": metricBatchStageDecode, "build": metricBatchStageBuild,
		"predict": metricBatchStagePredict, "render": metricBatchStageRender,
	}
	for _, send := range []func() *httptest.ResponseRecorder{
		func() *httptest.ResponseRecorder { return post(t, h, "/predict/batch", string(novelBody(2, 0))) },
		func() *httptest.ResponseRecorder { return get(t, h, "/predict/batch?network=resnet50&batches=1,8") },
	} {
		before := map[string]uint64{}
		for name, hist := range stages {
			before[name] = hist.Count()
		}
		if w := send(); w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body)
		}
		for name, hist := range stages {
			if got := hist.Count() - before[name]; got != 1 {
				t.Errorf("serve_batch_stage_%s_seconds moved by %d, want 1", name, got)
			}
		}
	}
}

// TestServeGracefulShutdown boots the real listener, verifies it answers,
// cancels the context and expects a clean drain.
func TestServeGracefulShutdown(t *testing.T) {
	s := fittedServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan string, 1)
	errc := make(chan error, 1)
	go func() { errc <- s.serveUntil(ctx, "127.0.0.1:0", ready) }()

	var addr string
	select {
	case addr = <-ready:
	case err := <-errc:
		t.Fatalf("server exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("listener did not come up")
	}

	resp, err := http.Get("http://" + addr + "/predict?network=resnet18&batch=8")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("live /predict status %d", resp.StatusCode)
	}

	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("graceful shutdown returned %v", err)
		}
	case <-time.After(2 * shutdownDrain):
		t.Fatal("serveUntil did not return after cancellation")
	}

	// The listener must actually be closed.
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Fatal("server still answering after shutdown")
	}
}

// nullResponseWriter is a reusable ResponseWriter for steady-state
// benchmarks: a persistent header map and a discarding body.
type nullResponseWriter struct {
	h      http.Header
	status int
}

func (w *nullResponseWriter) Header() http.Header { return w.h }

// Write discards the body, recording the implicit 200 a real server would
// send on an unheadered write.
func (w *nullResponseWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return len(p), nil
}

func (w *nullResponseWriter) WriteHeader(code int) { w.status = code }

// BenchmarkServePredict measures the full handler path of one /predict
// request — routing, instrumentation, query parsing, network lookup, plan
// prediction, response encoding. Steady state must not allocate, with
// observation enabled exactly as runServe enables it.
func BenchmarkServePredict(b *testing.B) {
	s := fittedServer(b)
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	h := s.handler()
	req := httptest.NewRequest(http.MethodGet, "/predict?network=resnet50&batch=64", nil)
	w := &nullResponseWriter{h: make(http.Header)}
	h.ServeHTTP(w, req)
	if w.status != http.StatusOK {
		b.Fatalf("warm-up status %d", w.status)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ServeHTTP(w, req)
	}
}

// quickLabA100 fits, once, the model a replica serves: the quick lab's
// A100 training split.
var quickLabA100 = sync.OnceValues(func() (*core.KWModel, error) {
	l := bench.NewQuickLab()
	ds, err := l.Dataset(gpu.A100)
	if err != nil {
		return nil, err
	}
	train, _ := l.Split(ds)
	return core.FitKW(train, gpu.A100.Name, bench.TrainBatch)
})

// novelBenchSeed keeps BenchmarkServePredictBatchNovel's specs unique across
// the benchmark's repeated runs.
var novelBenchSeed atomic.Int64

// BenchmarkServePredictBatchNovel measures serve-novel's request through
// s.handler(): never-repeated inline-spec POSTs, each missing the plan
// cache, on the quick-lab A100 model a replica serves. The model, and with
// it the layer memo, is shared across the benchmark's runs as a replica's
// is across requests. The bodies are drawn before the timer starts.
func BenchmarkServePredictBatchNovel(b *testing.B) {
	kw, err := quickLabA100()
	if err != nil {
		b.Fatal(err)
	}
	s := newServer(bench.NewQuickLab(), gpu.A100)
	if _, err := s.reg.Publish(kw, "bench"); err != nil {
		b.Fatal(err)
	}
	h := s.handler()
	seed := 1000 + novelBenchSeed.Add(1)
	reqs := make([]*http.Request, b.N)
	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodPost, "/predict/batch", bytes.NewReader(novelBody(seed, i)))
	}
	w := &nullResponseWriter{h: make(http.Header)}
	b.ReportAllocs()
	b.ResetTimer()
	for _, req := range reqs {
		w.status = 0
		h.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			b.Fatalf("status %d", w.status)
		}
	}
}

// BenchmarkServePredictBatch measures a 16-point sweep through the batch
// endpoint.
func BenchmarkServePredictBatch(b *testing.B) {
	s := fittedServer(b)
	h := s.handler()
	req := httptest.NewRequest(http.MethodGet,
		"/predict/batch?network=resnet50&batches=1,2,4,8,16,32,64,96,128,160,192,224,256,320,384,512", nil)
	w := &nullResponseWriter{h: make(http.Header)}
	h.ServeHTTP(w, req)
	if w.status != http.StatusOK {
		b.Fatalf("warm-up status %d", w.status)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ServeHTTP(w, req)
	}
}
