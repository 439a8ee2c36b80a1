package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestReplicaSpanShapeDigest pins the shape of the replica's request spans —
// name, category, track, and every argument's key and value in order, with
// trace IDs replaced by placeholders — for a sampled GET /predict, a sampled
// GET /predict that answers 404 and a sampled POST /predict/batch, to a
// digest recorded before the proxy and the replica shared one request-trace
// type. Span order is left out of the digest, since spans that start on the
// same clock reading sort by name; the test checks instead that every span
// lies inside its request span.
func TestReplicaSpanShapeDigest(t *testing.T) {
	h := fittedServer(t).handler()
	placeholders := map[string]string{}
	for _, c := range []struct {
		name, method, target, body string
		status                     int
	}{
		{"predict", http.MethodGet, "/predict?network=resnet50&batch=8", "", http.StatusOK},
		{"missing", http.MethodGet, "/predict?network=no-such-net&batch=8", "", http.StatusNotFound},
		{"batch", http.MethodPost, "/predict/batch", `{"network":"resnet50","batches":[1,8]}`, http.StatusOK},
	} {
		sc := obs.NewSpanContext()
		req := httptest.NewRequest(c.method, c.target, strings.NewReader(c.body))
		req.Header.Set("traceparent", sc.Traceparent())
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != c.status {
			t.Fatalf("%s: status %d, want %d (%s)", c.name, w.Code, c.status, w.Body)
		}
		if got := w.Header().Get("X-Trace-Id"); got != sc.TraceID() {
			t.Fatalf("%s: X-Trace-Id %q, want %q", c.name, got, sc.TraceID())
		}
		placeholders[sc.TraceID()] = "<" + c.name + ">"
	}

	pt, err := obs.ReadProcessTrace(get(t, h, "/tracez.json").Body)
	if err != nil {
		t.Fatal(err)
	}
	var evs []obs.TraceEvent
	reqs := map[string]obs.TraceEvent{}
	for _, ev := range pt.Events {
		for _, a := range ev.Args {
			if _, ours := placeholders[a.Val]; ours && a.Key == "trace_id" {
				evs = append(evs, ev)
				if ev.Cat == obs.RequestCat {
					reqs[a.Val] = ev
				}
			}
		}
	}
	for _, ev := range evs {
		req := reqs[ev.Args[0].Val]
		if ev.Start < req.Start || ev.Start+ev.Dur > req.Start+req.Dur {
			t.Errorf("span %q [%v, +%v] lies outside its request span [%v, +%v]", ev.Name, ev.Start, ev.Dur, req.Start, req.Dur)
		}
	}
	lines := make([]string, len(evs))
	for i, ev := range evs {
		args := make([]string, len(ev.Args))
		for j, a := range ev.Args {
			v := a.Val
			if p, ok := placeholders[v]; ok {
				v = p
			}
			args[j] = a.Key + "=" + v
		}
		lines[i] = fmt.Sprintf("%s|%s|%d|%s", ev.Name, ev.Cat, ev.Track, strings.Join(args, ","))
	}
	sort.Strings(lines)
	text := strings.Join(lines, "\n")
	sum := sha256.Sum256([]byte(text))
	const want = "2a4b9c4b95159652ff897841d12044b37c44aa4d2aeda0a224532b52a2047f9d"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("replica span-shape digest = %s, want %s; spans:\n%s", got, want, text)
	}
}
