package main

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
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
