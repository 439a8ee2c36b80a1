package obs

import (
	"math"
	"testing"
	"time"

	"repro/internal/units"
)

func TestHistogramBucketPlacement(t *testing.T) {
	h := NewHistogram([]units.Seconds{1, 2, 5})
	cases := []struct {
		d      units.Seconds
		bucket int
	}{
		{0.5, 0},
		{1, 0}, // bounds are inclusive upper edges
		{1.5, 1},
		{2, 1},
		{5, 2},
		{7, 3}, // +Inf bucket
	}
	for _, c := range cases {
		h.Observe(c.d)
	}
	_, count, buckets := h.snapshot()
	if count != uint64(len(cases)) {
		t.Fatalf("count = %d, want %d", count, len(cases))
	}
	// Per-bucket (non-cumulative) expectation from the cases above.
	want := []uint64{2, 2, 1, 1}
	var cum uint64
	for i, w := range want {
		cum += w
		if buckets[i].Cumulative != cum {
			t.Errorf("bucket %d cumulative = %d, want %d", i, buckets[i].Cumulative, cum)
		}
	}
	if !math.IsInf(float64(buckets[len(buckets)-1].UpperSeconds), 1) {
		t.Error("final bucket bound is not +Inf")
	}
	if buckets[len(buckets)-1].Cumulative != count {
		t.Error("final cumulative bucket != total count")
	}
}

func TestNewHistogramRejectsUnsortedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-increasing bounds did not panic")
		}
	}()
	NewHistogram([]units.Seconds{1, 1})
}

func TestStartTimerGatedOnEnabled(t *testing.T) {
	prev := Enabled()
	defer SetEnabled(prev)

	h := NewHistogram([]units.Seconds{1})

	SetEnabled(false)
	tm := StartTimer(h)
	tm.Stop()
	if got := h.Count(); got != 0 {
		t.Errorf("disabled timer recorded %d observations", got)
	}

	SetEnabled(true)
	tm = StartTimer(h)
	time.Sleep(time.Microsecond)
	tm.Stop()
	if got := h.Count(); got != 1 {
		t.Errorf("enabled timer recorded %d observations, want 1", got)
	}

	// The zero Timer and a nil histogram are both safe.
	(Timer{}).Stop()
	StartTimer(nil).Stop()
}

// Disabled-path costs: these exist so `go test -bench` can show the numbers
// behind the "a few atomic ops" claim in the package doc.
func BenchmarkCounterInc(b *testing.B) {
	var c Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkStartTimerDisabled(b *testing.B) {
	prev := Enabled()
	SetEnabled(false)
	defer SetEnabled(prev)
	h := NewHistogram(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		StartTimer(h).Stop()
	}
}

func BenchmarkStartTimerEnabled(b *testing.B) {
	prev := Enabled()
	SetEnabled(true)
	defer SetEnabled(prev)
	h := NewHistogram(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		StartTimer(h).Stop()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(3e-5)
	}
}

func BenchmarkStartSpanNoTracer(b *testing.B) {
	SetTracer(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := StartSpan("x")
		sp.End()
	}
}
