// Package loadgen is a stdlib-only HTTP load generator for the serving
// tier. It offers load open-loop — arrivals follow a schedule that does not
// wait for responses, the way independent users do — so queueing delay shows
// up in the measured latencies instead of silently throttling the offered
// rate, plus a closed-loop mode for measuring peak sustainable throughput.
//
// Schedules:
//
//   - Poisson: exponential inter-arrival times at the configured rate, the
//     standard memoryless open-loop model.
//   - Bursty: an on/off modulated Poisson process (4× the rate during
//     200 ms bursts, a quarter of it between them), stressing admission
//     control and queue watermarks the way diurnal or thundering-herd
//     traffic does.
//   - Closed: closedWorkers workers issue requests back to back;
//     throughput reports the service capacity at that concurrency.
//
// Latencies are recorded once per request, as exact samples whose p50, p90,
// p99 and p99.9 are selected at the end. Requests arriving during the
// warm-up window are sent and counted but excluded from latency and
// throughput, so cold plan caches and connection establishment do not
// pollute the steady-state numbers.
package loadgen

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/units"
)

// Arrival selects the request schedule.
type Arrival string

// The supported schedules.
const (
	Poisson Arrival = "poisson"
	Bursty  Arrival = "bursty"
	Diurnal Arrival = "diurnal"
	Closed  Arrival = "closed"
)

// ParseArrival maps a CLI string onto an Arrival.
func ParseArrival(s string) (Arrival, error) {
	switch Arrival(s) {
	case Poisson, Bursty, Diurnal, Closed:
		return Arrival(s), nil
	}
	return "", fmt.Errorf("loadgen: unknown arrival schedule %q (want poisson, bursty, diurnal or closed)", s)
}

// Config parameterizes one load-generation run.
type Config struct {
	// NewRequest builds the next request. It is called once per arrival on
	// the dispatching goroutine; rng is the run's seeded source, so a fixed
	// Seed yields a reproducible request mix.
	NewRequest func(rng *rand.Rand) (*http.Request, error)

	// Arrival is the schedule; empty defaults to Poisson. Bursty and
	// Diurnal have fixed shapes (BurstyArrivals, DiurnalArrivals), with one
	// diurnal cycle per Duration.
	Arrival Arrival

	// Rate is the mean offered arrival rate in requests/second for the
	// open-loop schedules. Ignored by Closed.
	Rate float64

	// Duration is the total run length including warm-up; Warmup is the
	// prefix whose responses are excluded from latency and throughput.
	Duration, Warmup time.Duration

	// Seed seeds the arrival and request-mix randomness.
	Seed int64
}

// Run's fixed shape.
const (
	// openConcurrency bounds outstanding open-loop requests. Arrivals
	// beyond the bound are shed (counted, not sent) rather than queued,
	// keeping the generator itself from becoming the queue.
	openConcurrency = 512
	// closedWorkers is the Closed schedule's worker count.
	closedWorkers = 16
	// slowestK bounds Result.Slowest, the slowest post-warm-up requests
	// kept with their echoed trace IDs.
	slowestK = 5
)

// Result summarizes one run.
type Result struct {
	Arrival Arrival
	// OfferedRPS is the configured mean arrival rate (0 for Closed).
	OfferedRPS float64
	// Sent counts requests actually issued; Shed counts open-loop arrivals
	// dropped because openConcurrency requests were already outstanding.
	Sent, Shed int64
	// Completed counts responses received (any status); Run returns only
	// after every sent request completed, so Completed == Sent unless the
	// context was cancelled mid-flight.
	Completed int64
	// Status2xx..NetErrors partition Completed.
	Status2xx, Status4xx, Status429, Status5xx, NetErrors int64
	// MeasuredSeconds is the post-warm-up window the throughput refers to.
	MeasuredSeconds units.Seconds
	// Measured counts post-warm-up 2xx responses; ThroughputRPS is
	// Measured / MeasuredSeconds.
	Measured      int64
	ThroughputRPS float64
	// Latency quantiles over the post-warm-up samples (exact order
	// statistics of the sample set, not bucket interpolation).
	P50, P90, P99, P999, Max time.Duration
	// Slowest lists the slowest post-warm-up requests, worst first, with the
	// trace ID each response echoed (empty when the request was unsampled),
	// so a bad tail can be looked up directly in the merged fleet timeline.
	Slowest []SlowRequest
}

// SlowRequest identifies one slow request for tail attribution.
type SlowRequest struct {
	TraceID string        `json:"trace_id,omitempty"`
	Latency time.Duration `json:"latency"`
	Status  int           `json:"status"`
}

// Quantile returns the exact q-quantile of ascending samples by the
// ceil-rank rule: sorted[⌈q·n⌉−1], the smallest sample with at least a q
// share of the samples at or below it, clamped to the first and last
// sample. An even-length median is the lower middle sample, and p99.9 of
// fewer than 1,000 samples is the maximum. Empty input yields the zero
// value. Run's latency summary and fleetsim's both report by this rule,
// through Percentiles.
func Quantile[T cmp.Ordered](sorted []T, q float64) T {
	if len(sorted) == 0 {
		var zero T
		return zero
	}
	return sorted[quantileIndex(len(sorted), q)]
}

// quantileIndex is the ceil-rank rule's index among n ≥ 1 samples.
func quantileIndex(n int, q float64) int {
	idx := int(math.Ceil(q*float64(n))) - 1
	return min(max(idx, 0), n-1)
}

// Percentiles returns the p50, p90, p99, p99.9 and maximum of xs, each
// equal to Quantile of the sorted samples, without sorting them: it selects
// the five order statistics in place, in ascending order, each within the
// part of xs left above the previous one. xs is reordered and must hold no
// NaN. Empty input yields zero values.
func Percentiles[T cmp.Ordered](xs []T) (p50, p90, p99, p999, pmax T) {
	if len(xs) == 0 {
		return
	}
	var out [5]T
	lo := 0
	for k, q := range [5]float64{0.50, 0.90, 0.99, 0.999, 1} {
		idx := quantileIndex(len(xs), q)
		if idx >= lo {
			selectNth(xs[lo:], idx-lo)
			lo = idx + 1
		}
		out[k] = xs[idx]
	}
	return out[0], out[1], out[2], out[3], out[4]
}

// selectDepth bounds selectNth's partition rounds. Median-of-three pivots
// halve sorted and nearly sorted input each round; past the bound the
// remaining range is sorted, so an adversarial order stays O(n log n).
const selectDepth = 32

// selectNth reorders xs so that xs[k] holds the value a sort would put
// there, with nothing larger before it and nothing smaller after it. The
// three-way partition settles a run of equal values in one round, which is
// most of a lightly loaded replay: a handful of distinct latencies.
func selectNth[T cmp.Ordered](xs []T, k int) {
	lo, hi := 0, len(xs)
	for depth := 0; hi-lo > 1; depth++ {
		if depth == selectDepth {
			slices.Sort(xs[lo:hi])
			return
		}
		a, b, c := xs[lo], xs[lo+(hi-lo)/2], xs[hi-1]
		pivot := max(min(a, b), min(max(a, b), c))
		// Partition [lo, hi) into < pivot [lo, lt), == pivot [lt, gt) and
		// > pivot [gt, hi).
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch v := xs[i]; {
			case v < pivot:
				xs[lt], xs[i] = v, xs[lt]
				lt++
				i++
			case v > pivot:
				gt--
				xs[gt], xs[i] = v, xs[gt]
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return
		}
	}
}

// Run drives one load-generation run and blocks until every issued request
// has completed (or ctx is cancelled, which stops new arrivals and abandons
// the wait after the client timeout).
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if cfg.NewRequest == nil {
		return nil, errors.New("loadgen: Config.NewRequest is required")
	}
	arrival := cfg.Arrival
	if arrival == "" {
		arrival = Poisson
	}
	if arrival != Closed && cfg.Rate <= 0 {
		return nil, fmt.Errorf("loadgen: %s schedule needs Rate > 0", arrival)
	}
	if cfg.Duration <= 0 {
		return nil, errors.New("loadgen: Duration must be positive")
	}
	if cfg.Warmup < 0 || cfg.Warmup >= cfg.Duration {
		return nil, fmt.Errorf("loadgen: Warmup %v must be in [0, Duration)", cfg.Warmup)
	}
	conc := openConcurrency
	if arrival == Closed {
		conc = closedWorkers
	}
	r := &run{
		cfg: cfg,
		// A dedicated client with keep-alive connections sized to the
		// concurrency.
		client: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxIdleConns:        conc,
				MaxIdleConnsPerHost: conc,
			},
		},
		warmupEnd: time.Now().Add(cfg.Warmup),
	}
	res := &Result{Arrival: arrival, OfferedRPS: cfg.Rate}
	if arrival == Closed {
		res.OfferedRPS = 0
	}

	deadline := time.Now().Add(cfg.Duration)
	switch arrival {
	case Closed:
		r.runClosed(ctx, conc, deadline)
	default:
		proc, err := NewArrivals(arrival, ArrivalsConfig{Rate: cfg.Rate, Seed: cfg.Seed, DiurnalPeriod: cfg.Duration})
		if err != nil {
			return nil, err
		}
		r.runOpen(ctx, proc, conc, deadline)
	}
	r.wg.Wait()

	res.Sent = r.sent.Load()
	res.Shed = r.shed.Load()
	res.Completed = r.completed.Load()
	res.Status2xx = r.s2xx.Load()
	res.Status4xx = r.s4xx.Load()
	res.Status429 = r.s429.Load()
	res.Status5xx = r.s5xx.Load()
	res.NetErrors = r.netErrs.Load()
	res.MeasuredSeconds = units.Seconds((cfg.Duration - cfg.Warmup).Seconds())
	res.Measured = r.measured.Load()
	if res.MeasuredSeconds > 0 {
		res.ThroughputRPS = float64(res.Measured) / res.MeasuredSeconds.Float64()
	}

	r.mu.Lock()
	samples := r.samples
	res.Slowest = r.slowest
	r.mu.Unlock()
	sort.Slice(res.Slowest, func(i, j int) bool { return res.Slowest[i].Latency > res.Slowest[j].Latency })
	res.P50, res.P90, res.P99, res.P999, res.Max = Percentiles(samples)
	return res, ctx.Err()
}

// run is the mutable state of one Run call.
type run struct {
	cfg    Config
	client *http.Client

	warmupEnd time.Time

	sent, shed, completed           atomic.Int64
	s2xx, s4xx, s429, s5xx, netErrs atomic.Int64
	measured                        atomic.Int64
	outstanding                     atomic.Int64
	wg                              sync.WaitGroup
	mu                              sync.Mutex
	samples                         []time.Duration
	slowest                         []SlowRequest // unordered top-k by latency
}

// recordSlow keeps the top-k slowest requests; r.mu must be held.
func (r *run) recordSlow(elapsed time.Duration, status int, traceID string) {
	if len(r.slowest) < slowestK {
		r.slowest = append(r.slowest, SlowRequest{TraceID: traceID, Latency: elapsed, Status: status})
		return
	}
	min := 0
	for i := 1; i < len(r.slowest); i++ {
		if r.slowest[i].Latency < r.slowest[min].Latency {
			min = i
		}
	}
	if elapsed > r.slowest[min].Latency {
		r.slowest[min] = SlowRequest{TraceID: traceID, Latency: elapsed, Status: status}
	}
}

// runOpen replays an open-loop arrival Process against the wall clock
// until the deadline: each simulated arrival time maps onto start+t, so
// the offered schedule is exactly the one the fleet simulator would replay
// for the same (schedule, rate, seed).
func (r *run) runOpen(ctx context.Context, proc Process, conc int, deadline time.Time) {
	reqRng := rand.New(rand.NewSource(r.cfg.Seed + 1))

	start := time.Now()
	for {
		if !time.Now().Before(deadline) {
			return
		}
		select {
		case <-ctx.Done():
			return
		default:
		}

		next := start.Add(time.Duration(proc.Next() * float64(time.Second)))
		if d := time.Until(next); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
				return
			}
		}
		if !time.Now().Before(deadline) {
			return
		}

		if r.outstanding.Load() >= int64(conc) {
			r.shed.Add(1)
			continue
		}
		req, err := r.cfg.NewRequest(reqRng)
		if err != nil {
			r.shed.Add(1)
			continue
		}
		r.dispatch(req)
	}
}

// runClosed runs conc workers back to back until the deadline.
func (r *run) runClosed(ctx context.Context, conc int, deadline time.Time) {
	for w := 0; w < conc; w++ {
		r.wg.Add(1)
		go func(w int) {
			defer r.wg.Done()
			rng := rand.New(rand.NewSource(r.cfg.Seed + int64(w)*7919))
			for time.Now().Before(deadline) {
				select {
				case <-ctx.Done():
					return
				default:
				}
				req, err := r.cfg.NewRequest(rng)
				if err != nil {
					return
				}
				r.sent.Add(1)
				r.do(req)
			}
		}(w)
	}
}

// dispatch issues one open-loop request on its own goroutine.
func (r *run) dispatch(req *http.Request) {
	r.sent.Add(1)
	r.outstanding.Add(1)
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		defer r.outstanding.Add(-1)
		r.do(req)
	}()
}

// do issues one request and records its outcome.
func (r *run) do(req *http.Request) {
	start := time.Now()
	resp, err := r.client.Do(req)
	elapsed := time.Since(start)
	r.completed.Add(1)
	if err != nil {
		r.netErrs.Add(1)
		return
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		r.s429.Add(1)
	case resp.StatusCode >= 500:
		r.s5xx.Add(1)
	case resp.StatusCode >= 400:
		r.s4xx.Add(1)
	default:
		r.s2xx.Add(1)
	}

	if start.Before(r.warmupEnd) {
		return
	}
	if resp.StatusCode < 400 {
		r.measured.Add(1)
	}
	r.mu.Lock()
	r.samples = append(r.samples, elapsed)
	r.recordSlow(elapsed, resp.StatusCode, resp.Header.Get(obs.TraceIDHeader))
	r.mu.Unlock()
}
