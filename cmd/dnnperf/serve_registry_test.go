package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/loadgen"
)

func TestServeReadyzSplitFromHealthz(t *testing.T) {
	// Cold server: alive but not ready.
	cold := newServer(bench.NewQuickLab(), gpu.A100)
	h := cold.handler()
	if w := get(t, h, "/healthz"); w.Code != http.StatusOK {
		t.Fatalf("cold /healthz status %d, want 200 (liveness never gates on the model)", w.Code)
	}
	w := get(t, h, "/readyz")
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("cold /readyz status %d, want 503", w.Code)
	}
	var rd struct {
		Ready        bool   `json:"ready"`
		ModelReady   bool   `json:"model_ready"`
		ModelVersion uint64 `json:"model_version"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &rd); err != nil {
		t.Fatal(err)
	}
	if rd.Ready || rd.ModelReady || rd.ModelVersion != 0 {
		t.Fatalf("cold readiness body: %+v", rd)
	}

	// Warm server: both 200, version visible in both bodies.
	warm := fittedServer(t)
	hw := warm.handler()
	w = get(t, hw, "/readyz")
	if w.Code != http.StatusOK {
		t.Fatalf("warm /readyz status %d: %s", w.Code, w.Body)
	}
	if err := json.Unmarshal(w.Body.Bytes(), &rd); err != nil {
		t.Fatal(err)
	}
	if !rd.Ready || !rd.ModelReady || rd.ModelVersion == 0 {
		t.Fatalf("warm readiness body: %+v", rd)
	}
	w = get(t, hw, "/healthz")
	var hb struct {
		ModelReady   bool   `json:"model_ready"`
		ModelVersion uint64 `json:"model_version"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &hb); err != nil {
		t.Fatal(err)
	}
	if w.Code != http.StatusOK || !hb.ModelReady || hb.ModelVersion != rd.ModelVersion {
		t.Fatalf("warm /healthz: status %d body %+v, want model_version %d", w.Code, hb, rd.ModelVersion)
	}
}

// savedModel serializes the fitted server's model into a core.Save envelope.
func savedModel(t testing.TB, s *server) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := core.Save(&buf, s.reg.Current().Model); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestServeModelzIntrospectionAndSwap(t *testing.T) {
	s := fittedServer(t)
	h := s.handler()
	before := s.reg.Version()

	// GET: current version and history.
	w := get(t, h, "/modelz")
	if w.Code != http.StatusOK {
		t.Fatalf("/modelz status %d: %s", w.Code, w.Body)
	}
	var mz struct {
		Version uint64 `json:"version"`
		Ready   bool   `json:"ready"`
		GPU     string `json:"gpu"`
		Kernels int    `json:"kernels"`
		History []struct {
			Version uint64 `json:"version"`
			Source  string `json:"source"`
		} `json:"history"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &mz); err != nil {
		t.Fatal(err)
	}
	if !mz.Ready || mz.Version != before || mz.GPU != "A100" || mz.Kernels == 0 || len(mz.History) == 0 {
		t.Fatalf("/modelz body: %+v", mz)
	}

	// POST a saved envelope: version advances, /readyz reports it.
	env := savedModel(t, s)
	w = post(t, h, "/modelz", string(env))
	if w.Code != http.StatusOK {
		t.Fatalf("POST /modelz status %d: %s", w.Code, w.Body)
	}
	var swapped struct {
		Version uint64 `json:"version"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &swapped); err != nil {
		t.Fatal(err)
	}
	if swapped.Version != before+1 || s.reg.Version() != before+1 {
		t.Fatalf("post-swap version %d (registry %d), want %d", swapped.Version, s.reg.Version(), before+1)
	}

	// The swapped-in model still predicts.
	if w := get(t, h, "/predict?network=resnet18&batch=8"); w.Code != http.StatusOK {
		t.Fatalf("post-swap /predict status %d: %s", w.Code, w.Body)
	}

	// Error contract: malformed body, non-KW kind, wrong method.
	if w := post(t, h, "/modelz", `{"kind": "kw", "version": 1, "model":`); w.Code != http.StatusBadRequest {
		t.Errorf("malformed envelope: status %d, want 400", w.Code)
	}
	if w := post(t, h, "/modelz", `{"kind": "nope", "version": 1, "model": {}}`); w.Code != http.StatusBadRequest {
		t.Errorf("unknown kind: status %d, want 400", w.Code)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/modelz", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("DELETE /modelz: status %d, want 405", rec.Code)
	}
}

// TestServeModelzRejectsMalformedModel: an envelope that decodes but whose
// group_of indices point past its groups would panic every prediction once
// published fleet-wide. /modelz must refuse it with 400, keep the version,
// and keep answering /predict from the previous model.
func TestServeModelzRejectsMalformedModel(t *testing.T) {
	s := fittedServer(t)
	h := s.handler()
	prev := s.reg.Current()
	want := get(t, h, "/predict?network=resnet18&batch=1")
	if want.Code != http.StatusOK {
		t.Fatalf("/predict status %d: %s", want.Code, want.Body)
	}

	var env struct {
		Kind    string         `json:"kind"`
		Version int            `json:"version"`
		Model   map[string]any `json:"model"`
	}
	if err := json.Unmarshal(savedModel(t, s), &env); err != nil {
		t.Fatal(err)
	}
	groupOf := env.Model["group_of"].(map[string]any)
	if len(groupOf) == 0 {
		t.Fatal("fitted model has no group_of entries to corrupt")
	}
	for k := range groupOf {
		groupOf[k] = 1 << 20
	}
	bad, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}

	if w := post(t, h, "/modelz", string(bad)); w.Code != http.StatusBadRequest {
		t.Fatalf("malformed model: status %d, want 400: %s", w.Code, w.Body)
	}
	if s.reg.Current() != prev || s.reg.Version() != prev.Version {
		t.Fatalf("rejected model moved the registry: version %d, want %d", s.reg.Version(), prev.Version)
	}
	got := get(t, h, "/predict?network=resnet18&batch=1")
	if got.Code != http.StatusOK || got.Body.String() != want.Body.String() {
		t.Fatalf("/predict after the rejected swap: status %d body %s, want 200 %s", got.Code, got.Body, want.Body)
	}
}

// TestServeModelzRejectsHugeCoefficients: slopes large enough to overflow
// every prediction to +Inf once made /predict and /predict/batch answer 200
// with bodies that are not JSON. core.Load now bounds coefficients, so
// /modelz refuses the envelope with 400, the serving version stays, and
// both predict routes keep answering valid JSON.
func TestServeModelzRejectsHugeCoefficients(t *testing.T) {
	s := fittedServer(t)
	h := s.handler()
	prev := s.reg.Current()

	var env struct {
		Kind    string         `json:"kind"`
		Version int            `json:"version"`
		Model   map[string]any `json:"model"`
	}
	if err := json.Unmarshal(savedModel(t, s), &env); err != nil {
		t.Fatal(err)
	}
	for _, g := range env.Model["groups"].([]any) {
		g.(map[string]any)["Line"].(map[string]any)["Slope"] = 1e300
	}
	bad, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	if w := post(t, h, "/modelz", string(bad)); w.Code != http.StatusBadRequest {
		t.Fatalf("huge coefficients: status %d, want 400: %s", w.Code, w.Body)
	}
	if s.reg.Current() != prev || s.reg.Version() != prev.Version {
		t.Fatalf("rejected model moved the registry: version %d, want %d", s.reg.Version(), prev.Version)
	}
	for _, w := range []*httptest.ResponseRecorder{
		get(t, h, "/predict?network=resnet50&batch=512"),
		post(t, h, "/predict/batch", `{"network":"resnet50","batches":[1,512]}`),
	} {
		if w.Code != http.StatusOK || !json.Valid(w.Body.Bytes()) {
			t.Fatalf("status %d, valid JSON %v: %s", w.Code, json.Valid(w.Body.Bytes()), w.Body)
		}
	}
}

func TestServeUniformBodyCap(t *testing.T) {
	h := fittedServer(t).handler()
	// A body over the uniform cap is rejected on any route — here /modelz,
	// whose own reader enforces the same limit the instrument wrapper does.
	big := `{"kind": "kw", "pad": "` + strings.Repeat("x", maxModelBody) + `"}`
	if w := post(t, h, "/modelz", big); w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized /modelz body: status %d, want 413", w.Code)
	}
}

// TestServeHotSwapUnderLoad is the acceptance test for zero-downtime swaps:
// a live server takes open-loop /predict traffic while /modelz swaps the
// model repeatedly. Every request must complete (no drops) and none may see
// a 5xx — in-flight predictions finish on the snapshot they loaded.
func TestServeHotSwapUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("load-bearing sleep-heavy test")
	}
	s := fittedServer(t)
	env := savedModel(t, s)
	startVersion := s.reg.Version()

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

	// Swapper: publish the envelope every 50ms while the load runs.
	swapCtx, stopSwaps := context.WithCancel(context.Background())
	defer stopSwaps()
	var swaps atomic.Int64
	swapDone := make(chan struct{})
	go func() {
		defer close(swapDone)
		for {
			select {
			case <-swapCtx.Done():
				return
			case <-time.After(50 * time.Millisecond):
			}
			resp, err := http.Post("http://"+addr+"/modelz", "application/json", bytes.NewReader(env))
			if err != nil {
				t.Errorf("swap POST: %v", err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("swap POST status %d", resp.StatusCode)
				return
			}
			swaps.Add(1)
		}
	}()

	networks := []string{"resnet50", "resnet18"}
	res, err := loadgen.Run(context.Background(), loadgen.Config{
		NewRequest: func(rng *rand.Rand) (*http.Request, error) {
			n := networks[rng.Intn(len(networks))]
			return http.NewRequest(http.MethodGet, "http://"+addr+"/predict?network="+n+"&batch=64", nil)
		},
		Rate:     400,
		Duration: 1500 * time.Millisecond,
		Warmup:   100 * time.Millisecond,
		Seed:     11,
	})
	stopSwaps()
	<-swapDone
	if err != nil {
		t.Fatal(err)
	}

	if res.Sent == 0 {
		t.Fatal("load generator sent nothing")
	}
	if res.Completed != res.Sent {
		t.Fatalf("dropped requests under hot-swap: sent %d, completed %d", res.Sent, res.Completed)
	}
	if res.Status5xx != 0 || res.NetErrors != 0 {
		t.Fatalf("hot-swap caused failures: 5xx=%d neterr=%d of %d", res.Status5xx, res.NetErrors, res.Completed)
	}
	if res.Status2xx != res.Completed {
		t.Fatalf("non-2xx responses under hot-swap: %+v", res)
	}
	if swaps.Load() == 0 {
		t.Fatal("no swap actually happened during the load window")
	}
	if got := s.reg.Version(); got != startVersion+uint64(swaps.Load()) {
		t.Fatalf("registry version %d, want %d + %d swaps", got, startVersion, swaps.Load())
	}

	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("shutdown after hot-swap load: %v", err)
		}
	case <-time.After(2 * shutdownDrain):
		t.Fatal("server did not drain")
	}
}
