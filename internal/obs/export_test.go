package obs

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/units"
)

// goldenRegistry builds a registry with one metric of each kind in known
// states, registered out of name order to prove exports sort.
func goldenRegistry() *Registry {
	r := NewRegistry()
	r.Counter("requests_total", "Requests handled.").Add(3)
	r.BytesCounter("moved_bytes_total", "Bytes moved.").Add(units.Bytes(1024))
	r.Gauge("queue_depth", "Current depth.").Set(-2)
	r.GaugeFunc("entries", "Entry count.", func() int64 { return 7 })
	h := r.Histogram("latency_seconds", "Latency.", []units.Seconds{0.001, 0.01})
	h.Observe(0.0005)
	h.Observe(0.02)
	return r
}

func TestWritePrometheusGolden(t *testing.T) {
	const want = `# HELP entries Entry count.
# TYPE entries gauge
entries 7
# HELP latency_seconds Latency.
# TYPE latency_seconds histogram
latency_seconds_bucket{le="0.001"} 1
latency_seconds_bucket{le="0.01"} 1
latency_seconds_bucket{le="+Inf"} 2
latency_seconds_sum 0.0205
latency_seconds_count 2
# HELP moved_bytes_total Bytes moved.
# TYPE moved_bytes_total counter
moved_bytes_total 1024
# HELP queue_depth Current depth.
# TYPE queue_depth gauge
queue_depth -2
# HELP requests_total Requests handled.
# TYPE requests_total counter
requests_total 3
`
	r := goldenRegistry()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != want {
		t.Errorf("Prometheus exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}

	// Determinism: a second write is byte-identical.
	var buf2 bytes.Buffer
	if err := r.WritePrometheus(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("two Prometheus writes of the same state differ")
	}
}

func TestWriteJSON(t *testing.T) {
	r := goldenRegistry()
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Metrics []struct {
			Name    string   `json:"name"`
			Kind    string   `json:"kind"`
			Value   *int64   `json:"value"`
			Sum     *float64 `json:"sum_seconds"`
			Count   *uint64  `json:"count"`
			Buckets []struct {
				LE         *float64 `json:"le_seconds"`
				Cumulative uint64   `json:"cumulative"`
			} `json:"buckets"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("WriteJSON produced invalid JSON: %v", err)
	}
	if len(doc.Metrics) != 5 {
		t.Fatalf("got %d metrics, want 5", len(doc.Metrics))
	}
	hist := doc.Metrics[1]
	if hist.Name != "latency_seconds" || hist.Count == nil || *hist.Count != 2 {
		t.Errorf("histogram metric = %+v, want latency_seconds with count 2", hist)
	}
	if n := len(hist.Buckets); n != 3 {
		t.Fatalf("histogram has %d buckets, want 3 (two finite + Inf)", n)
	}
	if hist.Buckets[2].LE != nil {
		t.Error("+Inf bucket should serialize le_seconds as null")
	}
	if hist.Buckets[2].Cumulative != 2 {
		t.Errorf("+Inf cumulative = %d, want 2", hist.Buckets[2].Cumulative)
	}
}

// goldenTracer replays a fixed scenario on a manual clock: a task span with
// a child on its track, plus an externally completed kernel event.
func goldenTracer() *Tracer {
	tr := NewTracer()
	var clock time.Duration
	tr.now = func() time.Duration { return clock }

	sp := tr.Start("compile", TaskCat)
	sp.SetArg("gpu", "A100")
	clock = 2 * time.Millisecond
	child := sp.Child("lower")
	clock = 3 * time.Millisecond
	child.End()
	clock = 5 * time.Millisecond
	sp.End()

	tr.Complete(TraceEvent{
		Name: "kernel", Cat: "kernel", Track: 7,
		Start: time.Millisecond, Dur: 500 * time.Microsecond,
		Args: []Arg{{Key: "layer", Val: "3"}},
	})
	return tr
}

func TestWriteChromeTraceGolden(t *testing.T) {
	const want = `{
 "displayTimeUnit": "ms",
 "traceEvents": [
  {
   "name": "compile",
   "cat": "task",
   "ph": "X",
   "pid": 1,
   "tid": 1,
   "ts": 0,
   "dur": 5000,
   "args": {
    "gpu": "A100"
   }
  },
  {
   "name": "kernel",
   "cat": "kernel",
   "ph": "X",
   "pid": 1,
   "tid": 7,
   "ts": 1000,
   "dur": 500,
   "args": {
    "layer": "3"
   }
  },
  {
   "name": "lower",
   "cat": "task",
   "ph": "X",
   "pid": 1,
   "tid": 1,
   "ts": 2000,
   "dur": 1000
  }
 ]
}
`
	tr := goldenTracer()
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != want {
		t.Errorf("Chrome trace mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if !json.Valid(buf.Bytes()) {
		t.Error("Chrome trace is not valid JSON")
	}
}

func TestTracerBufferCap(t *testing.T) {
	tr := NewTracer()
	tr.maxEvents = 2
	for i := 0; i < 5; i++ {
		tr.Complete(TraceEvent{Name: "e"})
	}
	if got := len(tr.Events()); got != 2 {
		t.Errorf("retained %d events, want 2", got)
	}
	if got := tr.Dropped(); got != 3 {
		t.Errorf("dropped = %d, want 3", got)
	}
}

func TestNilTracerAndSpanAreNoOps(t *testing.T) {
	SetTracer(nil)
	sp := StartSpan("x")
	sp.SetArg("a", "b")
	child := sp.Child("y")
	child.End()
	sp.End()
	if sp != nil || child != nil {
		t.Error("nil tracer should yield nil spans")
	}
	var tr *Tracer
	tr.Complete(TraceEvent{}) // must not panic
	if got := tr.Start("x", TaskCat); got != nil {
		t.Error("nil tracer Start should return nil")
	}
}
