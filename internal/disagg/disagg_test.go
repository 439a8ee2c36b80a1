package disagg

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dnn"
	"repro/internal/units"
	"repro/internal/zoo"
)

func almostEqual[A, B ~float64](a A, b B) bool {
	x, y := float64(a), float64(b)
	return math.Abs(x-y) <= 1e-12*math.Max(math.Abs(x), math.Abs(y))+1e-15
}

func TestComputeBoundPipeline(t *testing.T) {
	// Tiny fetches: the GPU never stalls after the first fetch; total is
	// first fetch + Σ compute.
	jobs := []LayerJob{
		{Name: "a", ComputeSeconds: 10e-3, RemoteBytes: 1000},
		{Name: "b", ComputeSeconds: 10e-3, RemoteBytes: 1000},
		{Name: "c", ComputeSeconds: 10e-3, RemoteBytes: 1000},
	}
	res, err := Simulate(jobs, Config{LinkGBps: 100})
	if err != nil {
		t.Fatal(err)
	}
	firstFetch := 1000.0 / 100e9
	want := firstFetch + 30e-3
	if !almostEqual(res.TotalSeconds, want) {
		t.Fatalf("total = %v, want %v", res.TotalSeconds, want)
	}
	if !almostEqual(res.ComputeSeconds, 30e-3) {
		t.Fatalf("compute = %v", res.ComputeSeconds)
	}
	if float64(res.StallSeconds) > firstFetch+1e-12 {
		t.Fatalf("stall = %v, want ≈ first fetch only", res.StallSeconds)
	}
}

func TestFetchBoundPipeline(t *testing.T) {
	// Zero compute: total is the serialized fetch time.
	jobs := []LayerJob{
		{Name: "a", RemoteBytes: 1e9},
		{Name: "b", RemoteBytes: 1e9},
	}
	res, err := Simulate(jobs, Config{LinkGBps: 1}) // 1 GB/s → 1 s per layer
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(res.TotalSeconds, 2.0) {
		t.Fatalf("total = %v, want 2", res.TotalSeconds)
	}
	if !almostEqual(res.FetchSeconds, 2.0) {
		t.Fatalf("fetch = %v", res.FetchSeconds)
	}
}

func TestHandComputedOverlap(t *testing.T) {
	// Layer 1: fetch 1 s, compute 2 s. Layer 2: fetch 2 s, compute 1 s.
	// Timeline: f1 done at 1, c1 runs 1→3; f2 runs 1→3 (overlapped);
	// c2 runs 3→4. Total 4 s.
	jobs := []LayerJob{
		{Name: "l1", ComputeSeconds: 2, RemoteBytes: 1e9},
		{Name: "l2", ComputeSeconds: 1, RemoteBytes: 2e9},
	}
	res, err := Simulate(jobs, Config{LinkGBps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(res.TotalSeconds, 4.0) {
		t.Fatalf("total = %v, want 4", res.TotalSeconds)
	}
	if !almostEqual(res.StallSeconds, 1.0) { // only the initial fill
		t.Fatalf("stall = %v, want 1", res.StallSeconds)
	}
}

func TestLocalMemoryWindowSerializes(t *testing.T) {
	// Window fits exactly one layer's traffic: fetch i+1 cannot start until
	// compute i finishes. Total = Σ(fetch_i + compute_i).
	jobs := []LayerJob{
		{Name: "a", ComputeSeconds: 1, RemoteBytes: 1e9},
		{Name: "b", ComputeSeconds: 1, RemoteBytes: 1e9},
	}
	res, err := Simulate(jobs, Config{LinkGBps: 1, LocalMemBytes: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(res.TotalSeconds, 4.0) {
		t.Fatalf("total = %v, want 4 (fully serialized)", res.TotalSeconds)
	}

	// A window of two layers restores the overlap.
	res2, err := Simulate(jobs, Config{LinkGBps: 1, LocalMemBytes: 2e9})
	if err != nil {
		t.Fatal(err)
	}
	if res2.TotalSeconds >= res.TotalSeconds {
		t.Fatalf("larger window should be faster: %v vs %v", res2.TotalSeconds, res.TotalSeconds)
	}
}

func TestLinkLatency(t *testing.T) {
	jobs := []LayerJob{{Name: "a", ComputeSeconds: 0, RemoteBytes: 0}}
	res, err := Simulate(jobs, Config{LinkGBps: 1, LinkLatencyUS: 50})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(res.TotalSeconds, 50e-6) {
		t.Fatalf("total = %v, want 50 µs latency", res.TotalSeconds)
	}
}

func TestValidationErrors(t *testing.T) {
	if _, err := Simulate(nil, Config{LinkGBps: 0}); err == nil {
		t.Fatal("zero bandwidth should error")
	}
	if _, err := Simulate([]LayerJob{{ComputeSeconds: -1}}, Config{LinkGBps: 1}); err == nil {
		t.Fatal("negative compute should error")
	}
	_, err := Simulate([]LayerJob{{RemoteBytes: 10, Name: "big"}},
		Config{LinkGBps: 1, LocalMemBytes: 5})
	if err == nil || !strings.Contains(err.Error(), "local memory") {
		t.Fatalf("oversized layer: err = %v", err)
	}
}

func TestEmptyJobs(t *testing.T) {
	res, err := Simulate(nil, Config{LinkGBps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalSeconds != 0 {
		t.Fatalf("empty total = %v", res.TotalSeconds)
	}
}

func TestSweepMonotone(t *testing.T) {
	jobs := []LayerJob{
		{Name: "a", ComputeSeconds: 1e-3, RemoteBytes: 5e8},
		{Name: "b", ComputeSeconds: 1e-3, RemoteBytes: 5e8},
		{Name: "c", ComputeSeconds: 1e-3, RemoteBytes: 5e8},
	}
	results, err := Sweep(jobs, Config{}, []float64{16, 32, 64, 128})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(results); i++ {
		if results[i].TotalSeconds > results[i-1].TotalSeconds+1e-15 {
			t.Fatalf("more bandwidth made it slower at index %d", i)
		}
	}
	sp := Speedups(results)
	if sp[0] != 1 {
		t.Fatalf("speedups[0] = %v, want 1", sp[0])
	}
	for i := 1; i < len(sp); i++ {
		if sp[i] < sp[i-1]-1e-12 {
			t.Fatalf("speedups not non-decreasing: %v", sp)
		}
	}
}

// TestTotalBounds: for any job list, the total time is at least
// max(Σ compute, Σ fetch) and at most Σ compute + Σ fetch (full overlap vs
// none), up to latency.
func TestTotalBounds(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rnd := rand.New(rand.NewSource(seed))
		n := int(nRaw%10) + 1
		jobs := make([]LayerJob, n)
		var sumC, sumF float64
		const bw = 10.0 // GB/s
		for i := range jobs {
			jobs[i] = LayerJob{
				ComputeSeconds: units.Seconds(rnd.Float64() * 1e-3),
				RemoteBytes:    units.Bytes(rnd.Intn(1e7)),
			}
			sumC += float64(jobs[i].ComputeSeconds)
			sumF += float64(jobs[i].RemoteBytes) / (bw * 1e9)
		}
		res, err := Simulate(jobs, Config{LinkGBps: bw})
		if err != nil {
			return false
		}
		lower := math.Max(sumC, sumF)
		upper := sumC + sumF
		return float64(res.TotalSeconds) >= lower-1e-12 && float64(res.TotalSeconds) <= upper+1e-12
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(17))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestComputeUtilization(t *testing.T) {
	r := Result{TotalSeconds: 2, ComputeSeconds: 1}
	if got := r.ComputeUtilization(); got != 0.5 {
		t.Fatalf("utilization = %v", got)
	}
	if (Result{}).ComputeUtilization() != 0 {
		t.Fatal("zero result utilization should be 0")
	}
}

func TestSpeedupsEdgeCases(t *testing.T) {
	if got := Speedups(nil); len(got) != 0 {
		t.Fatal("nil results should give empty speedups")
	}
	got := Speedups([]Result{{TotalSeconds: 2}, {TotalSeconds: 0}})
	if !math.IsInf(got[1], 1) {
		t.Fatalf("zero-time entry should be +Inf, got %v", got[1])
	}
}

func TestJobsFromNetwork(t *testing.T) {
	n := zoo.MustResNet(18)
	calls := 0
	jobs, err := JobsFromNetwork(n, 4, func(l *dnn.Layer) units.Seconds {
		calls++
		return units.Seconds(l.OutShape.Numel()) * 1e-9
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != len(n.Layers) || calls != len(n.Layers) {
		t.Fatalf("%d jobs from %d layer-time calls, want one each for %d layers", len(jobs), calls, len(n.Layers))
	}
	for i, l := range n.Layers {
		traffic := 4 * (l.WeightCount() + l.OutShape.Numel())
		for _, s := range l.InShapes {
			traffic += 4 * s.Numel()
		}
		j := jobs[i]
		if j.Name != l.Name || j.RemoteBytes != units.Bytes(traffic) ||
			j.ComputeSeconds != units.Seconds(l.OutShape.Numel())*1e-9 {
			t.Fatalf("job %d = %+v, want %s with %d B", i, j, l.Name, traffic)
		}
	}
	if _, err := JobsFromNetwork(n, 0, func(*dnn.Layer) units.Seconds { return 0 }); err == nil {
		t.Fatal("batch 0 accepted")
	}
}
