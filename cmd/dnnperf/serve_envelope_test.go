package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/gpu"
)

// quickLabEnvelope is the core.Save envelope of the quick-lab A100 model the
// fleet parent fits, built once for the tests below.
var quickLabEnvelope = sync.OnceValues(func() ([]byte, error) {
	kw, err := fitServeModel(bench.NewQuickLab(), gpu.A100)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = core.Save(&buf, kw)
	return buf.Bytes(), err
})

// envelopeServer starts the warm-up of a quick-lab A100 server that reads
// its model from an OS pipe, as a fleet replica reads its stdin, and
// returns the server with the pipe's write end.
func envelopeServer(t *testing.T) (*server, *os.File) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	s := newServer(bench.NewQuickLab(), gpu.A100)
	s.envelope = r
	s.startWarmup()
	return s, w
}

// waitWarm polls until the server's warm-up published a model or stored an
// error.
func waitWarm(t *testing.T, s *server) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for s.reg.Current() == nil && s.modelErr.Load() == nil {
		if time.Now().After(deadline) {
			t.Fatal("warm-up neither published nor failed within 2m")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServeEnvelopeMatchesSelfFit: a server fed the quick-lab model's
// envelope through a pipe stays unready until the bytes arrive, then
// publishes it as version 1 and answers every predict route byte for byte
// as a server that fitted its own model does.
func TestServeEnvelopeMatchesSelfFit(t *testing.T) {
	env, err := quickLabEnvelope()
	if err != nil {
		t.Fatal(err)
	}
	self := newServer(bench.NewQuickLab(), gpu.A100)
	self.startWarmup()

	s, w := envelopeServer(t)
	h := s.handler()
	if rd := get(t, h, "/readyz"); rd.Code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz before the envelope: status %d, want 503", rd.Code)
	}
	half := len(env) / 2
	if _, err := w.Write(env[:half]); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if rd := get(t, h, "/readyz"); rd.Code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz with half the envelope: status %d, want 503", rd.Code)
	}
	if _, err := w.Write(env[half:]); err != nil {
		t.Fatal(err)
	}
	w.Close()
	waitWarm(t, s)
	waitWarm(t, self)
	if rd := get(t, h, "/readyz"); rd.Code != http.StatusOK {
		t.Fatalf("/readyz after the envelope: status %d: %s", rd.Code, rd.Body)
	}
	if self.reg.Current() == nil {
		t.Fatalf("self-fitting server failed: %v", *self.modelErr.Load())
	}

	var mz struct {
		Version uint64 `json:"version"`
		Kernels int    `json:"kernels"`
		Groups  int    `json:"groups"`
	}
	if err := json.Unmarshal(get(t, h, "/modelz").Body.Bytes(), &mz); err != nil {
		t.Fatal(err)
	}
	want := self.reg.Current().Model
	if mz.Version != 1 || mz.Kernels != want.KernelCount() || mz.Groups != want.ModelCount() {
		t.Fatalf("/modelz = %+v, want version 1 with %d kernels and %d groups", mz, want.KernelCount(), want.ModelCount())
	}
	var again bytes.Buffer
	if err := core.Save(&again, s.reg.Current().Model); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), env) {
		t.Fatal("the published model does not save to the envelope it was read from")
	}

	hs := self.handler()
	gets := []string{
		"/predict?network=resnet50&batch=64",
		"/predict?network=resnet18&batch=1",
		"/predict?network=vgg16&batch=512",
		"/predict?network=resnet50&batch=33",
		"/predict/batch?network=resnet50&batches=1,8,64,512",
	}
	for _, target := range gets {
		got, want := get(t, h, target), get(t, hs, target)
		if got.Code != http.StatusOK || got.Code != want.Code || got.Body.String() != want.Body.String() {
			t.Fatalf("GET %s:\n envelope: %d %s\n self-fit: %d %s", target, got.Code, got.Body, want.Code, want.Body)
		}
	}
	posts := []string{
		`{"network":"resnet50","batches":[1,8,64,512]}`,
		`{"network":"densenet121","batches":[4,127]}`,
		`{"network_spec":{"name":"tiny","input_shape":[3,32,32],"layers":[` +
			`{"kind":"Conv2D","cin":3,"cout":16,"kh":3,"kw":3,"stride":1,"pad":1},{"kind":"BatchNorm"},{"kind":"ReLU"},` +
			`{"kind":"GlobalAvgPool"},{"kind":"Flatten"},{"kind":"Linear","in_features":16,"out_features":10}]},` +
			`"batches":[1,2,64,512]}`,
	}
	for _, body := range posts {
		got, want := post(t, h, "/predict/batch", body), post(t, hs, "/predict/batch", body)
		if got.Code != http.StatusOK || got.Code != want.Code || got.Body.String() != want.Body.String() {
			t.Fatalf("POST %s:\n envelope: %d %s\n self-fit: %d %s", body, got.Code, got.Body, want.Code, want.Body)
		}
	}
}

// TestServeEnvelopeRejects: a truncated envelope and an empty one (the
// parent died before writing) each leave the server unready with the decode
// error on /readyz, and publish nothing.
func TestServeEnvelopeRejects(t *testing.T) {
	env, err := quickLabEnvelope()
	if err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string][]byte{"truncated": env[:len(env)/3], "empty": nil} {
		s, w := envelopeServer(t)
		if _, err := w.Write(body); err != nil {
			t.Fatal(err)
		}
		w.Close()
		waitWarm(t, s)
		if s.reg.Current() != nil || s.reg.Version() != 0 {
			t.Fatalf("%s envelope published version %d", name, s.reg.Version())
		}
		rd := get(t, s.handler(), "/readyz")
		var body struct {
			ModelError string `json:"model_error"`
		}
		if err := json.Unmarshal(rd.Body.Bytes(), &body); err != nil {
			t.Fatal(err)
		}
		if rd.Code != http.StatusServiceUnavailable || !strings.HasPrefix(body.ModelError, "decoding model envelope: ") {
			t.Fatalf("%s envelope: /readyz %d %s, want 503 with the decode error", name, rd.Code, rd.Body)
		}
	}
}
