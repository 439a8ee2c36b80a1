package obs

import (
	"context"
	"sync"
	"time"

	"repro/internal/units"
)

// SLO burn-rate tracking. A tracker periodically samples a small set of live
// counters — total requests, bad requests, and a latency histogram's
// (count, count ≤ threshold) pair — into a bounded ring. A report diffs the
// current counters against the oldest sample inside each sliding window,
// which turns the cumulative counters the registry already keeps into
// windowed rates without per-request bookkeeping on any hot path.
//
// Burn rate is the standard SRE normalization: the fraction of the error
// budget consumed per unit budget. burn = badFraction / (1 − objective), so
// burn 1.0 means "erring exactly at the objective"; a 14x burn over 5
// minutes is the classic page-now signal.

// The SLO every tracker reports against. The objectives are typed so that
// 1 − objective rounds as float64 arithmetic does.
const (
	// sloAvailabilityObjective is the target success fraction.
	sloAvailabilityObjective float64 = 0.999
	// sloLatencyObjective is the target fraction of requests at or under
	// sloLatencyThreshold.
	sloLatencyObjective float64 = 0.99
	// sloLatencyThreshold is the latency SLO boundary, a
	// DefaultLatencyBuckets bound so the windowed counts are exact.
	sloLatencyThreshold units.Seconds = 0.05
	// sloMaxSamples bounds the ring: enough for the longest window at the
	// serving processes' 2 s sampling interval.
	sloMaxSamples = 1024
)

// sloWindows are the sliding windows /sloz reports over.
var sloWindows = [...]time.Duration{time.Minute, 5 * time.Minute, 30 * time.Minute}

// sloSample is one point-in-time counter snapshot.
type sloSample struct {
	at       time.Time
	requests int64
	bad      int64
	histN    uint64
	histFast uint64
}

// SLOTracker samples live counters and reports windowed burn rates. Safe for
// concurrent Sample/Report.
type SLOTracker struct {
	requests func() int64
	bad      func() int64
	hist     *Histogram
	now      func() time.Time // test-substitutable clock

	mu      sync.Mutex
	samples []sloSample // ascending by time, bounded by sloMaxSamples
}

// NewSLOTracker builds a tracker over live counter reads. requests and bad
// return cumulative totals (bad ⊆ requests); hist is the latency histogram
// the latency objective reads (nil disables the latency report). The
// creation instant is recorded as a baseline sample, so short-lived
// processes report meaningful windows immediately.
func NewSLOTracker(requests, bad func() int64, hist *Histogram) *SLOTracker {
	t := &SLOTracker{
		requests: requests,
		bad:      bad,
		hist:     hist,
		now:      time.Now,
	}
	t.Sample()
	return t
}

// Sample records the current counters into the ring.
func (t *SLOTracker) Sample() {
	s := sloSample{at: t.now(), requests: t.requests(), bad: t.bad()}
	if t.hist != nil {
		s.histN = t.hist.Count()
		s.histFast = t.hist.CountAtMost(sloLatencyThreshold)
	}
	t.mu.Lock()
	t.samples = append(t.samples, s)
	if len(t.samples) > sloMaxSamples {
		// Drop the oldest; shift in place to keep one allocation.
		copy(t.samples, t.samples[1:])
		t.samples = t.samples[:len(t.samples)-1]
	}
	t.mu.Unlock()
}

// Run samples every interval until ctx is done.
func (t *SLOTracker) Run(ctx context.Context, every time.Duration) {
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			t.Sample()
		}
	}
}

// SLOWindowReport is one window's burn-rate summary, the /sloz wire shape.
type SLOWindowReport struct {
	Window string `json:"window"`
	// CoverageSeconds is how much of the window the oldest in-window sample
	// actually covers; less than the window means the process is young.
	CoverageSeconds units.Seconds `json:"coverage_seconds"`
	Requests        int64         `json:"requests"`
	Bad             int64         `json:"bad"`
	// Availability is the success fraction over the window (1 with no
	// traffic: an empty window burns no budget).
	Availability         float64 `json:"availability"`
	AvailabilityBurnRate float64 `json:"availability_burn_rate"`
	// LatencyCompliance is the fraction of requests ≤ the threshold.
	LatencyCompliance float64 `json:"latency_compliance"`
	LatencyBurnRate   float64 `json:"latency_burn_rate"`
}

// SLOReport is the full /sloz document.
type SLOReport struct {
	AvailabilityObjective float64           `json:"availability_objective"`
	LatencyObjective      float64           `json:"latency_objective"`
	LatencyThresholdSecs  float64           `json:"latency_threshold_seconds"`
	Windows               []SLOWindowReport `json:"windows"`
}

// oldestWithin returns the earliest sample no older than cutoff; ok=false
// when every sample predates it (then the caller falls back to the newest
// older one for full-window coverage) or the ring is empty.
func (t *SLOTracker) oldestWithin(cutoff time.Time) (sloSample, bool) {
	for _, s := range t.samples {
		if !s.at.Before(cutoff) {
			return s, true
		}
	}
	return sloSample{}, false
}

// Report computes burn rates for every window against the live counters.
func (t *SLOTracker) Report() SLOReport {
	now := t.now()
	cur := sloSample{at: now, requests: t.requests(), bad: t.bad()}
	if t.hist != nil {
		cur.histN = t.hist.Count()
		cur.histFast = t.hist.CountAtMost(sloLatencyThreshold)
	}

	t.mu.Lock()
	defer t.mu.Unlock()
	rep := SLOReport{
		AvailabilityObjective: sloAvailabilityObjective,
		LatencyObjective:      sloLatencyObjective,
		LatencyThresholdSecs:  float64(sloLatencyThreshold),
	}
	for _, w := range sloWindows {
		base, ok := t.oldestWithin(now.Add(-w))
		if !ok {
			if len(t.samples) == 0 {
				continue
			}
			// All samples predate the window: the oldest retained one still
			// bounds the diff; coverage caps at the window length.
			base = t.samples[0]
		}
		wr := SLOWindowReport{
			Window:            w.String(),
			Requests:          cur.requests - base.requests,
			Bad:               cur.bad - base.bad,
			Availability:      1,
			LatencyCompliance: 1,
		}
		cov := now.Sub(base.at)
		if cov > w {
			cov = w
		}
		wr.CoverageSeconds = units.Seconds(cov.Seconds())
		if wr.Requests > 0 {
			errFrac := float64(wr.Bad) / float64(wr.Requests)
			wr.Availability = 1 - errFrac
			wr.AvailabilityBurnRate = errFrac / (1 - sloAvailabilityObjective)
		}
		if n := cur.histN - base.histN; n > 0 {
			fast := cur.histFast - base.histFast
			slowFrac := float64(n-fast) / float64(n)
			wr.LatencyCompliance = 1 - slowFrac
			wr.LatencyBurnRate = slowFrac / (1 - sloLatencyObjective)
		}
		rep.Windows = append(rep.Windows, wr)
	}
	return rep
}
