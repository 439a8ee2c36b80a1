package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"repro/internal/obs"
)

// percentile returns the ceil-rank q-quantile of sorted (ascending): the
// smallest sample with at least q·n samples at or below it. q is in (0, 1];
// the median of an even-length sample is therefore its lower middle value.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median is the ceil-rank median of xs; xs is not modified.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// openSample is one open-loop request, every instant an offset from the
// schedule's origin. due is when the arrival schedule says the request is
// sent; pickup is when a connection became free to take it; send is when
// it actually went out; done is when its response was read.
type openSample struct {
	due, pickup, send, done time.Duration
}

// latency is the request's time from its due time, so a stall that delays
// later requests counts against them too.
func (s openSample) latency() time.Duration { return s.done - s.due }

// connWait is how long the request waited, past its due time, for one of
// the driver's connections to come free.
func (s openSample) connWait() time.Duration {
	if s.pickup > s.due {
		return s.pickup - s.due
	}
	return 0
}

// late is the generator's own lateness: from when the request could go out
// (due, or pickup if later) to when it was sent.
func (s openSample) late() time.Duration {
	ready := s.due
	if s.pickup > ready {
		ready = s.pickup
	}
	return s.send - ready
}

// sortedMicros maps durations through f and returns them ascending, in µs.
func sortedMicros(samples []openSample, f func(openSample) time.Duration) []float64 {
	out := make([]float64, 0, len(samples))
	for _, s := range samples {
		out = append(out, float64(f(s))/float64(time.Microsecond))
	}
	sort.Float64s(out)
	return out
}

// scrape is one /metrics.json snapshot of a replica, by metric name.
type scrape map[string]obs.MetricJSON

// parseScrape decodes a /metrics.json body.
func parseScrape(r io.Reader) (scrape, error) {
	var doc struct {
		Metrics []obs.MetricJSON `json:"metrics"`
	}
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("decoding /metrics.json: %w", err)
	}
	out := make(scrape, len(doc.Metrics))
	for _, m := range doc.Metrics {
		out[m.Name] = m
	}
	return out, nil
}

// value returns a counter or gauge value, 0 when absent.
func (s scrape) value(name string) int64 {
	if m, ok := s[name]; ok && m.Value != nil {
		return *m.Value
	}
	return 0
}

// hist returns a histogram's sum (seconds) and count, zeros when absent.
func (s scrape) hist(name string) (float64, uint64) {
	if m, ok := s[name]; ok && m.Sum != nil && m.Count != nil {
		return *m.Sum, *m.Count
	}
	return 0, 0
}

// delta is the change between two scrapes of each replica, summed over the
// replicas: counters and gauges by value, histograms by sum and count.
type delta struct{ before, after []scrape }

func (d delta) value(name string) int64 {
	var v int64
	for i := range d.after {
		v += d.after[i].value(name) - d.before[i].value(name)
	}
	return v
}

// meanUs is a histogram's mean observation over the window, in µs; 0 when
// it recorded nothing.
func (d delta) meanUs(name string) float64 {
	var sum float64
	var n uint64
	for i := range d.after {
		sa, ca := d.after[i].hist(name)
		sb, cb := d.before[i].hist(name)
		sum += sa - sb
		n += ca - cb
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n) * 1e6
}

// ledger attributes one mean proxied request to the serving layers. All
// fields are means in µs, because means add up and percentiles do not:
// e2e is the proxied round trip, direct the round trip to a replica,
// handler the replica's route handler, inner the layers measured inside the
// handler (the /predict stages, or the sweep for /predict/batch).
type ledger struct{ e2e, direct, handler, inner float64 }

// overhead is what the proxy hop adds.
func (l ledger) overhead() float64 { return l.e2e - l.direct }

// http is the replica's HTTP and network cost outside its handler.
func (l ledger) http() float64 { return l.direct - l.handler }

// unexplained is the part of the end-to-end mean no measured layer covers.
func (l ledger) unexplained() float64 { return l.e2e - (l.overhead() + l.http() + l.inner) }
