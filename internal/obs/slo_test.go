package obs

import (
	"context"
	"math"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/units"
)

// sloFixture builds a tracker over manual counters and a manual clock.
type sloFixture struct {
	t        *SLOTracker
	clock    time.Time
	requests atomic.Int64
	bad      atomic.Int64
	hist     *Histogram
}

func newSLOFixture() *sloFixture {
	f := &sloFixture{hist: NewHistogram(nil)}
	f.clock = time.Unix(1000, 0)
	f.t = &SLOTracker{
		requests: f.requests.Load,
		bad:      f.bad.Load,
		hist:     f.hist,
	}
	f.t.now = func() time.Time { return f.clock }
	f.t.Sample() // creation baseline, as NewSLOTracker records
	return f
}

func (f *sloFixture) serve(n int64, bad int64, lat units.Seconds) {
	f.requests.Add(n)
	f.bad.Add(bad)
	for i := int64(0); i < n; i++ {
		f.hist.Observe(lat)
	}
}

func TestSLOReportCleanTraffic(t *testing.T) {
	f := newSLOFixture()
	f.serve(100, 0, 1e-3) // 100 fast, clean requests
	f.clock = f.clock.Add(30 * time.Second)

	rep := f.t.Report()
	var windows []string
	for _, w := range rep.Windows {
		windows = append(windows, w.Window)
	}
	if want := []string{"1m0s", "5m0s", "30m0s"}; !slices.Equal(windows, want) {
		t.Fatalf("windows = %q, want %q", windows, want)
	}
	for _, w := range rep.Windows {
		if w.Requests != 100 || w.Bad != 0 {
			t.Fatalf("%s: requests/bad = %d/%d, want 100/0", w.Window, w.Requests, w.Bad)
		}
		if w.Availability != 1 || w.AvailabilityBurnRate != 0 {
			t.Fatalf("%s: availability %v burn %v, want 1 and 0", w.Window, w.Availability, w.AvailabilityBurnRate)
		}
		if w.LatencyCompliance != 1 || w.LatencyBurnRate != 0 {
			t.Fatalf("%s: latency %v burn %v, want 1 and 0", w.Window, w.LatencyCompliance, w.LatencyBurnRate)
		}
		if w.CoverageSeconds != 30 {
			t.Fatalf("%s: coverage = %v, want 30 (young process)", w.Window, w.CoverageSeconds)
		}
	}
}

func TestSLOBurnRates(t *testing.T) {
	f := newSLOFixture()
	// 1000 requests: 10 bad (1% error, 10x the 0.1% budget), 100 slow
	// (10% slow, 10x the 1% latency budget).
	f.serve(890, 0, 1e-3)
	f.serve(10, 10, 1e-3)
	f.serve(100, 0, 0.2)
	f.clock = f.clock.Add(20 * time.Second)

	rep := f.t.Report()
	if rep.AvailabilityObjective != 0.999 || rep.LatencyObjective != 0.99 || rep.LatencyThresholdSecs != 0.05 {
		t.Fatalf("objectives %+v, want 0.999, 0.99 and 0.05 s", rep)
	}
	w := rep.Windows[0]
	if w.Requests != 1000 || w.Bad != 10 {
		t.Fatalf("requests/bad = %d/%d", w.Requests, w.Bad)
	}
	if got, want := w.AvailabilityBurnRate, 0.01/0.001; math.Abs(got-want) > 1e-9 {
		t.Fatalf("availability burn = %v, want %v", got, want)
	}
	if got, want := w.Availability, 0.99; math.Abs(got-want) > 1e-9 {
		t.Fatalf("availability = %v, want %v", got, want)
	}
	if got, want := w.LatencyBurnRate, 0.1/0.01; math.Abs(got-want) > 1e-9 {
		t.Fatalf("latency burn = %v, want %v", got, want)
	}
	if got, want := w.LatencyCompliance, 0.9; math.Abs(got-want) > 1e-9 {
		t.Fatalf("latency compliance = %v, want %v", got, want)
	}
}

func TestSLOWindowing(t *testing.T) {
	f := newSLOFixture()

	// Minute 0–4: an error burst. Then 2 minutes of clean traffic, sampling
	// every 30s like the production loop.
	f.serve(100, 50, 1e-3)
	for i := 0; i < 4; i++ {
		f.clock = f.clock.Add(30 * time.Second)
		f.t.Sample()
	}
	for i := 0; i < 4; i++ {
		f.clock = f.clock.Add(30 * time.Second)
		f.serve(25, 0, 1e-3)
		f.t.Sample()
	}

	rep := f.t.Report()
	oneMin, fiveMin := rep.Windows[0], rep.Windows[1]
	// The last minute saw only clean traffic (two 25-request batches).
	if oneMin.Bad != 0 {
		t.Fatalf("1m window bad = %d, want 0 (burst aged out)", oneMin.Bad)
	}
	if oneMin.Requests != 50 {
		t.Fatalf("1m window requests = %d, want 50", oneMin.Requests)
	}
	// The 5-minute window still covers the burst.
	if fiveMin.Bad != 50 {
		t.Fatalf("5m window bad = %d, want 50", fiveMin.Bad)
	}
	if fiveMin.AvailabilityBurnRate <= oneMin.AvailabilityBurnRate {
		t.Fatalf("5m burn %v should exceed 1m burn %v",
			fiveMin.AvailabilityBurnRate, oneMin.AvailabilityBurnRate)
	}
}

func TestSLORingBound(t *testing.T) {
	f := newSLOFixture()
	const extra = 6
	for i := 0; i < sloMaxSamples+extra; i++ {
		f.clock = f.clock.Add(time.Millisecond)
		f.serve(1, 0, 1e-3)
		f.t.Sample()
	}
	f.t.mu.Lock()
	n := len(f.t.samples)
	f.t.mu.Unlock()
	if n != sloMaxSamples {
		t.Fatalf("ring holds %d samples, want %d", n, sloMaxSamples)
	}
	// Every window exceeds the ring's span, so the report diffs against the
	// oldest retained sample: the creation baseline and the first extra
	// samples were dropped.
	w := f.t.Report().Windows[0]
	if want := int64(sloMaxSamples - 1); w.Requests != want {
		t.Fatalf("requests over truncated window = %d, want %d", w.Requests, want)
	}
}

func TestSLOTrackerRun(t *testing.T) {
	var reqs atomic.Int64
	tr := NewSLOTracker(reqs.Load, func() int64 { return 0 }, nil)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { tr.Run(ctx, time.Millisecond); close(done) }()
	deadline := time.After(2 * time.Second)
	for {
		tr.mu.Lock()
		n := len(tr.samples)
		tr.mu.Unlock()
		if n >= 3 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("Run produced no samples")
		case <-time.After(time.Millisecond):
		}
	}
	cancel()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Run did not stop on ctx cancel")
	}
}

func TestSLOReportNoLatencyHistogram(t *testing.T) {
	var reqs atomic.Int64
	tr := NewSLOTracker(reqs.Load, func() int64 { return 0 }, nil)
	reqs.Add(10)
	w := tr.Report().Windows[0]
	if w.LatencyCompliance != 1 || w.LatencyBurnRate != 0 {
		t.Fatalf("nil-histogram latency report = %+v, want neutral", w)
	}
}
