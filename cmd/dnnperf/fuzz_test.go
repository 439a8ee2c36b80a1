package main

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"testing"

	"repro/internal/fleet"
)

// FuzzPredictBatchBody posts arbitrary bodies to /predict/batch on the
// handler tests' fitted server. The handler must never panic and must answer
// 200, 400, 404, 413 or 422; a 200 must carry one finite, positive
// predicted_ms per requested batch. Seeds are a serve-novel-shaped spec, a
// zoo network, each error status, the two inline specs whose counts
// overflow int64 (within and past shape inference) and the bodies at the
// edge of the one-pass decoder's canonical subset.
func FuzzPredictBatchBody(f *testing.F) {
	f.Add(`{"network_spec":{"name":"nas-1-0","input_shape":[3,64,64],"layers":[` +
		`{"kind":"Conv2D","cin":3,"cout":32,"kh":3,"kw":3,"stride":2,"pad":1},{"kind":"BatchNorm"},{"kind":"ReLU"},` +
		`{"kind":"Conv2D","cin":32,"cout":64,"kh":1,"kw":1,"stride":1,"pad":0},{"kind":"BatchNorm"},{"kind":"ReLU"},` +
		`{"kind":"Conv2D","cin":64,"cout":64,"kh":5,"kw":5,"stride":1,"pad":2},{"kind":"BatchNorm"},{"kind":"ReLU"}]},` +
		`"batches":[1,8,64,512]}`)
	f.Add(`{"network":"resnet50","batches":[1,8,64,512]}`)
	f.Add(`{"network":"resnet50","batches":[1`)                                                         // 400: malformed JSON
	f.Add(`{"network":"resnet50","batches":[0]}`)                                                       // 400: non-positive batch
	f.Add(`{"batches":[1]}`)                                                                            // 400: neither network nor spec
	f.Add(`{"network":"no-such-net","batches":[1]}`)                                                    // 404
	f.Add(`{"network":"resnet50","batches":[1048577]}`)                                                 // 422: above core.MaxBatch
	f.Add(`{"network_spec":{"input_shape":[3,8,8],"layers":[{"kind":"Convolution9D"}]},"batches":[1]}`) // 422
	f.Add(`{"network":"resnet50","batches":[1],"pad":"` + strings.Repeat("x", maxBatchBody) + `"}`)     // 413
	f.Add(wideConvSpec)
	f.Add(hugeInputSpec)
	for _, body := range edgeBodies {
		f.Add(body)
	}

	h := fittedServer(f).handler()
	f.Fuzz(func(t *testing.T, body string) {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/predict/batch", strings.NewReader(body)))
		switch w.Code {
		case http.StatusBadRequest, http.StatusNotFound, http.StatusRequestEntityTooLarge, http.StatusUnprocessableEntity:
			return
		case http.StatusOK:
		default:
			t.Fatalf("status %d (%s)", w.Code, w.Body)
		}
		// The handler decodes the first JSON value of the body; so does this.
		var req batchRequest
		if err := json.NewDecoder(strings.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("200 for a body the decoder rejects: %v", err)
		}
		var resp struct {
			Batches     []int     `json:"batches"`
			PredictedMs []float64 `json:"predicted_ms"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatalf("200 body is not JSON: %v (%s)", err, w.Body)
		}
		if !slices.Equal(resp.Batches, req.Batches) || len(resp.PredictedMs) != len(req.Batches) {
			t.Fatalf("200 answers batches %v with %d predictions, requested %v",
				resp.Batches, len(resp.PredictedMs), req.Batches)
		}
		for i, ms := range resp.PredictedMs {
			if !(ms > 0) || math.IsInf(ms, 0) {
				t.Fatalf("predicted_ms[%d] = %v at batch %d, want finite and positive", i, ms, req.Batches[i])
			}
		}
	})
}

// FuzzQueryValue holds fleet.QueryValue, the allocation-free query scanner
// the GET handlers read parameters with and the proxy reads its shard key
// with, to url.ParseQuery. It must never panic, and whenever ParseQuery
// accepts the query and no raw key is escaped (so raw and decoded keys
// agree), QueryValue must return the first value ParseQuery decoded for
// every key it found, and report absent every handler key it did not find.
func FuzzQueryValue(f *testing.F) {
	for _, raw := range []string{
		"network=resnet50&batch=8",
		"batches=1%2C2",
		"a+b",
		"network=",
		"network",
		"batch=1&batch=2",
		"%zz",
		"x;y=1",
		"&=0", // the empty pair is no key; only "=0" names the empty key
	} {
		f.Add(raw)
	}
	handlerKeys := []string{"network", "batch", "batches"}
	f.Fuzz(func(t *testing.T, raw string) {
		for _, k := range handlerKeys {
			fleet.QueryValue(raw, k)
		}
		vals, err := url.ParseQuery(raw)
		if err != nil {
			return
		}
		for _, pair := range strings.Split(raw, "&") {
			if k, _, _ := strings.Cut(pair, "="); strings.ContainsAny(k, "%+") {
				return
			}
		}
		for k, vs := range vals {
			if got, ok := fleet.QueryValue(raw, k); !ok || got != vs[0] {
				t.Fatalf("QueryValue(%q, %q) = %q, %v; ParseQuery decoded %q", raw, k, got, ok, vs[0])
			}
		}
		for _, k := range handlerKeys {
			if _, found := vals[k]; !found {
				if got, ok := fleet.QueryValue(raw, k); ok || got != "" {
					t.Fatalf("QueryValue(%q, %q) = %q, %v; ParseQuery found no such key", raw, k, got, ok)
				}
			}
		}
	})
}
