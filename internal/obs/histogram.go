package obs

import (
	"math"
	"sync/atomic"
	"time"

	"repro/internal/units"
)

// DefaultLatencyBuckets spans the repository's latency range — sub-µs
// cached predictions up to multi-second full-lab collection passes — in a
// 1/2/5 progression. 22 finite buckets plus the implicit +Inf bucket.
func DefaultLatencyBuckets() []units.Seconds {
	return []units.Seconds{
		1e-6, 2e-6, 5e-6,
		1e-5, 2e-5, 5e-5,
		1e-4, 2e-4, 5e-4,
		1e-3, 2e-3, 5e-3,
		1e-2, 2e-2, 5e-2,
		1e-1, 2e-1, 5e-1,
		1, 2, 5, 10,
	}
}

// Histogram is a fixed-bucket latency histogram. Observation is lock-free:
// one binary search over the (immutable) bounds plus two atomic adds. The
// observation sum is kept in integer nanoseconds so concurrent recording
// stays associative — snapshots are exact counts, never racy float folds.
type Histogram struct {
	bounds   []units.Seconds // ascending upper bounds; immutable after New
	counts   []atomic.Uint64 // len(bounds)+1; last bucket is +Inf
	sumNanos atomic.Int64
	obsTotal atomic.Uint64
}

// NewHistogram builds a histogram with the given ascending upper bounds
// (nil selects DefaultLatencyBuckets). Bounds must be strictly increasing.
func NewHistogram(bounds []units.Seconds) *Histogram {
	if bounds == nil {
		bounds = DefaultLatencyBuckets()
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly increasing")
		}
	}
	own := make([]units.Seconds, len(bounds))
	copy(own, bounds)
	return &Histogram{bounds: own, counts: make([]atomic.Uint64, len(own)+1)}
}

// Observe records one duration.
func (h *Histogram) Observe(d units.Seconds) {
	// Binary search for the first bound >= d; observations beyond every
	// bound land in the +Inf bucket.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < d {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(1)
	h.sumNanos.Add(int64(float64(d) * 1e9))
	h.obsTotal.Add(1)
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.obsTotal.Load() }

// Sum returns the (nanosecond-truncated) sum of all observations.
func (h *Histogram) Sum() units.Seconds {
	return units.Seconds(float64(h.sumNanos.Load()) / 1e9)
}

// CountAtMost returns how many observations landed in buckets whose upper
// bound is ≤ threshold — the "fast enough" numerator for a latency
// objective. The count is exact when the threshold equals a bucket bound
// (the intended configuration) and conservative (rounds down) otherwise.
func (h *Histogram) CountAtMost(threshold units.Seconds) uint64 {
	var cum uint64
	for i, b := range h.bounds {
		if b > threshold {
			break
		}
		cum += h.counts[i].Load()
	}
	return cum
}

// snapshot returns sum, count, and cumulative bucket counts, with a final
// +Inf bucket. Concurrent observations may land between the bucket loads;
// cumulative counts are each exact, and the final bucket equals the count
// loaded in the same pass so exporters always see a coherent series.
func (h *Histogram) snapshot() (units.Seconds, uint64, []BucketSnapshot) {
	out := make([]BucketSnapshot, len(h.counts))
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		upper := units.Seconds(math.Inf(1))
		if i < len(h.bounds) {
			upper = h.bounds[i]
		}
		out[i] = BucketSnapshot{UpperSeconds: upper, Cumulative: cum}
	}
	return h.Sum(), cum, out
}

// Timer measures one region into a histogram. The zero Timer (returned by
// StartTimer when observation is disabled) makes Stop a no-op.
type Timer struct {
	h     *Histogram
	start time.Time
}

// StartTimer begins timing a region if observation is enabled; otherwise it
// returns the zero Timer at the cost of a single atomic load.
func StartTimer(h *Histogram) Timer {
	if !enabled.Load() || h == nil {
		return Timer{}
	}
	return Timer{h: h, start: time.Now()}
}

// Stop records the elapsed time. No-op on the zero Timer.
func (t Timer) Stop() {
	if t.h == nil {
		return
	}
	t.h.Observe(units.Seconds(time.Since(t.start).Seconds()))
}
