package loadgen

import (
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rng"
)

// testTarget is an httptest server with a controllable handler.
func testTarget(t *testing.T, h http.HandlerFunc) (*httptest.Server, func(*rand.Rand) (*http.Request, error)) {
	t.Helper()
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	newReq := func(*rand.Rand) (*http.Request, error) {
		return http.NewRequest(http.MethodGet, srv.URL+"/predict", nil)
	}
	return srv, newReq
}

func TestRunPoissonBasics(t *testing.T) {
	var served atomic.Int64
	_, newReq := testTarget(t, func(w http.ResponseWriter, r *http.Request) {
		served.Add(1)
		w.WriteHeader(http.StatusOK)
	})

	res, err := Run(context.Background(), Config{
		NewRequest: newReq,
		Rate:       400,
		Duration:   500 * time.Millisecond,
		Warmup:     100 * time.Millisecond,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent == 0 || res.Completed != res.Sent {
		t.Fatalf("sent=%d completed=%d; want equal and non-zero", res.Sent, res.Completed)
	}
	if res.Completed != served.Load() {
		t.Fatalf("completed=%d but server saw %d", res.Completed, served.Load())
	}
	if res.Status2xx != res.Completed || res.Status5xx != 0 || res.NetErrors != 0 {
		t.Fatalf("status partition: %+v", res)
	}
	// ~400 rps over 0.5s → ~200 arrivals; allow a wide Poisson band.
	if res.Sent < 100 || res.Sent > 400 {
		t.Fatalf("sent=%d, want roughly 200 for 400rps x 0.5s", res.Sent)
	}
	if res.ThroughputRPS <= 0 {
		t.Fatalf("throughput = %v, want > 0", res.ThroughputRPS)
	}
	// Warm-up responses must be excluded from the measured set.
	if res.Measured >= res.Completed {
		t.Fatalf("measured=%d not smaller than completed=%d despite warm-up", res.Measured, res.Completed)
	}
	if res.P50 <= 0 || res.P99 < res.P50 || res.P999 < res.P99 || res.Max < res.P999 {
		t.Fatalf("quantiles not monotone: p50=%v p99=%v p999=%v max=%v", res.P50, res.P99, res.P999, res.Max)
	}
}

func TestRunQuantilesAgainstKnownLatency(t *testing.T) {
	const floor = 5 * time.Millisecond
	_, newReq := testTarget(t, func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(floor)
		w.WriteHeader(http.StatusOK)
	})
	res, err := Run(context.Background(), Config{
		NewRequest: newReq,
		Rate:       150,
		Duration:   600 * time.Millisecond,
		Seed:       2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Measured == 0 {
		t.Fatal("no measured responses")
	}
	if res.P50 < floor {
		t.Fatalf("p50=%v below the server's %v latency floor", res.P50, floor)
	}
}

// TestQuantile pins the ceil-rank rule every latency summary reports
// through, for both sample types it is used with.
func TestQuantile(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	upTo := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	cases := []struct {
		name    string
		samples []float64
		q       float64
		want    float64
	}{
		{"empty input is zero", nil, 0.5, 0},
		{"q = 0 is the min", ten, 0, 1},
		{"q < 0 is the min", ten, -0.25, 1},
		{"q = 1 is the max", ten, 1, 10},
		{"q > 1 is the max", ten, 1.5, 10},
		{"even-length median is the lower middle", ten, 0.5, 5},
		{"odd-length median is the middle", []float64{1, 2, 3}, 0.5, 2},
		{"rank rounds up", ten, 0.91, 10},
		{"p99.9 of 999 samples is the max", upTo(999), 0.999, 999},
		{"p99.9 of 1,000 samples is the 999th", upTo(1000), 0.999, 999},
	}
	for _, c := range cases {
		if got := Quantile(c.samples, c.q); got != c.want {
			t.Errorf("%s: float64 Quantile(q=%v) = %v, want %v", c.name, c.q, got, c.want)
		}
		durs := make([]time.Duration, len(c.samples))
		for i, v := range c.samples {
			durs[i] = time.Duration(v) * time.Millisecond
		}
		if got, want := Quantile(durs, c.q), time.Duration(c.want)*time.Millisecond; got != want {
			t.Errorf("%s: Duration Quantile(q=%v) = %v, want %v", c.name, c.q, got, want)
		}
	}
}

// TestPercentilesMatchSortedQuantile: selection returns what sorting then
// Quantile returns, for both sample types, on orders that stress the
// partition: random, all equal, a few distinct values, sorted, reversed
// and organ-pipe.
func TestPercentilesMatchSortedQuantile(t *testing.T) {
	draw := rng.New(3)
	shapes := []struct {
		name string
		at   func(i, n int) float64
	}{
		{"random", func(int, int) float64 { return draw.Float64() }},
		{"all equal", func(int, int) float64 { return 7 }},
		{"nine distinct", func(int, int) float64 { return float64(draw.Intn(9)) }},
		{"sorted", func(i, _ int) float64 { return float64(i) }},
		{"reversed", func(i, n int) float64 { return float64(n - i) }},
		{"organ pipe", func(i, n int) float64 { return float64(min(i, n-1-i)) }},
	}
	for _, sh := range shapes {
		for _, n := range []int{0, 1, 2, 3, 999, 1000, 2000, 4097} {
			xs := make([]float64, n)
			durs := make([]time.Duration, n)
			for i := range xs {
				xs[i] = sh.at(i, n)
				durs[i] = time.Duration(xs[i] * 1e9)
			}
			checkPercentiles(t, sh.name, xs)
			checkPercentiles(t, sh.name, durs)
		}
	}
}

// checkPercentiles compares Percentiles of a copy of xs with Quantile of a
// sorted copy.
func checkPercentiles[T float64 | time.Duration](t *testing.T, name string, xs []T) {
	t.Helper()
	sorted := slices.Clone(xs)
	slices.Sort(sorted)
	want := []T{
		Quantile(sorted, 0.50), Quantile(sorted, 0.90), Quantile(sorted, 0.99),
		Quantile(sorted, 0.999), Quantile(sorted, 1),
	}
	p50, p90, p99, p999, pmax := Percentiles(slices.Clone(xs))
	if got := []T{p50, p90, p99, p999, pmax}; !slices.Equal(got, want) {
		t.Errorf("%s, n=%d: Percentiles = %v, sorted quantiles %v", name, len(xs), got, want)
	}
}

func TestRunClosedLoop(t *testing.T) {
	_, newReq := testTarget(t, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	res, err := Run(context.Background(), Config{
		NewRequest: newReq,
		Arrival:    Closed,
		Duration:   300 * time.Millisecond,
		Seed:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent == 0 || res.Completed != res.Sent {
		t.Fatalf("closed loop sent=%d completed=%d", res.Sent, res.Completed)
	}
	if res.OfferedRPS != 0 {
		t.Fatalf("closed loop reports offered rate %v", res.OfferedRPS)
	}
	if res.Shed != 0 {
		t.Fatalf("closed loop shed %d", res.Shed)
	}
}

func TestRunBurstyOffersMoreVariance(t *testing.T) {
	_, newReq := testTarget(t, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	res, err := Run(context.Background(), Config{
		NewRequest: newReq,
		Arrival:    Bursty,
		Rate:       300,
		Duration:   600 * time.Millisecond,
		Seed:       4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent == 0 || res.Status5xx != 0 {
		t.Fatalf("bursty run: %+v", res)
	}
}

func TestRunStatusPartition(t *testing.T) {
	var n atomic.Int64
	_, newReq := testTarget(t, func(w http.ResponseWriter, r *http.Request) {
		switch n.Add(1) % 4 {
		case 0:
			w.WriteHeader(http.StatusTooManyRequests)
		case 1:
			w.WriteHeader(http.StatusBadRequest)
		case 2:
			w.WriteHeader(http.StatusInternalServerError)
		default:
			w.WriteHeader(http.StatusOK)
		}
	})
	res, err := Run(context.Background(), Config{
		NewRequest: newReq,
		Rate:       300,
		Duration:   400 * time.Millisecond,
		Seed:       5,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Status2xx + res.Status4xx + res.Status429 + res.Status5xx + res.NetErrors
	if got != res.Completed {
		t.Fatalf("status partition sums to %d, completed %d", got, res.Completed)
	}
	for name, v := range map[string]int64{
		"2xx": res.Status2xx, "4xx": res.Status4xx, "429": res.Status429, "5xx": res.Status5xx,
	} {
		if v == 0 {
			t.Errorf("no %s responses recorded", name)
		}
	}
	// Only 2xx responses count toward throughput.
	if res.Measured > res.Status2xx {
		t.Fatalf("measured %d exceeds 2xx %d", res.Measured, res.Status2xx)
	}
}

func TestRunConfigValidation(t *testing.T) {
	newReq := func(*rand.Rand) (*http.Request, error) {
		return http.NewRequest(http.MethodGet, "http://127.0.0.1:0/", nil)
	}
	cases := []Config{
		{},                             // no NewRequest
		{NewRequest: newReq},           // no rate
		{NewRequest: newReq, Rate: 10}, // no duration
		{NewRequest: newReq, Rate: 10, Duration: time.Second, Warmup: time.Second}, // warmup >= duration
	}
	for i, cfg := range cases {
		if _, err := Run(context.Background(), cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if _, err := ParseArrival("sawtooth"); err == nil {
		t.Error("ParseArrival accepted an unknown schedule")
	}
	for _, s := range []string{"poisson", "bursty", "diurnal", "closed"} {
		if _, err := ParseArrival(s); err != nil {
			t.Errorf("ParseArrival(%q): %v", s, err)
		}
	}
}

func TestRunContextCancel(t *testing.T) {
	_, newReq := testTarget(t, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := Run(ctx, Config{
		NewRequest: newReq,
		Rate:       100,
		Duration:   10 * time.Second,
		Seed:       6,
	})
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("cancellation did not stop the run promptly")
	}
	if res == nil || res.Completed != res.Sent {
		t.Fatalf("cancelled run dropped requests: %+v", res)
	}
}

// TestRunSlowestTraceIDs checks the slowest-K set is bounded, sorted worst
// first, and carries the trace IDs the server echoed.
func TestRunSlowestTraceIDs(t *testing.T) {
	var n atomic.Int64
	_, newReq := testTarget(t, func(w http.ResponseWriter, r *http.Request) {
		i := n.Add(1)
		w.Header().Set("X-Trace-Id", "trace-"+strconv.FormatInt(i, 10))
		if i%5 == 0 {
			time.Sleep(3 * time.Millisecond) // make a distinct slow tail
		}
		w.WriteHeader(http.StatusOK)
	})

	res, err := Run(context.Background(), Config{
		NewRequest: newReq,
		Rate:       300,
		Duration:   500 * time.Millisecond,
		Warmup:     50 * time.Millisecond,
		Seed:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Slowest) == 0 || len(res.Slowest) > slowestK {
		t.Fatalf("got %d slowest entries, want 1..%d", len(res.Slowest), slowestK)
	}
	for i, s := range res.Slowest {
		if s.TraceID == "" {
			t.Errorf("slowest[%d] has no trace ID", i)
		}
		if s.Status != http.StatusOK {
			t.Errorf("slowest[%d] status %d", i, s.Status)
		}
		if i > 0 && s.Latency > res.Slowest[i-1].Latency {
			t.Errorf("slowest not sorted worst-first: [%d]=%v > [%d]=%v", i, s.Latency, i-1, res.Slowest[i-1].Latency)
		}
	}
	if res.Slowest[0].Latency != res.Max {
		t.Errorf("slowest[0]=%v != max=%v", res.Slowest[0].Latency, res.Max)
	}
}
