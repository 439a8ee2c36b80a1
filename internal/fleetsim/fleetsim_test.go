package fleetsim

import (
	"fmt"
	"maps"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/loadgen"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/units"
)

// smallScenario is the shared open-loop fixture: a 4-type heterogeneous
// fleet under Poisson traffic at a rate the fleet can absorb.
func smallScenario() Scenario {
	return Scenario{
		Name:      "small",
		Fleet:     []int32{0, 1, 2, 3},
		Arrival:   loadgen.Poisson,
		RateRPS:   400,
		Requests:  20_000,
		MaxBatch:  8,
		PostProcS: 200e-6,
		Policy:    "jsq",
		Seed:      7,
	}
}

func mustRun(t *testing.T, sc Scenario, st *StepTable) Result {
	t.Helper()
	res, err := sc.Run(st)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestReplayInvariants(t *testing.T) {
	st := SyntheticStepTable(4, 8, 16, 42)
	sc := smallScenario()
	res := mustRun(t, sc, st)

	if res.Requests != int64(sc.Requests) || res.Unfinished != 0 {
		t.Fatalf("served %d of %d, unfinished %d", res.Requests, sc.Requests, res.Unfinished)
	}
	if !(res.P50S > 0 && res.P50S <= res.P90S && res.P90S <= res.P99S && res.P99S <= res.P999S && res.P999S <= res.MaxS) {
		t.Fatalf("quantiles not monotone: p50=%v p90=%v p99=%v p999=%v max=%v",
			res.P50S, res.P90S, res.P99S, res.P999S, res.MaxS)
	}
	// Every latency includes at least the post-processing constant.
	if res.P50S < sc.PostProcS {
		t.Fatalf("p50 %v below the %v post-processing floor", res.P50S, sc.PostProcS)
	}
	if res.SimSeconds <= 0 || res.MaxS > res.SimSeconds {
		t.Fatalf("sim span %v vs max latency %v", res.SimSeconds, res.MaxS)
	}
	if res.MeanBatch < 1 || float64(res.MeanBatch) > float64(sc.MaxBatch) {
		t.Fatalf("mean batch %v outside [1, %d]", res.MeanBatch, sc.MaxBatch)
	}
	// Each request contributes an arrival event and rides exactly one batch.
	if res.Events != int64(sc.Requests)+res.Batches {
		t.Fatalf("events %d != arrivals %d + batches %d", res.Events, sc.Requests, res.Batches)
	}
	if len(res.Util) != 4 || len(res.MaxQueueDepth) != 4 {
		t.Fatalf("per-replica stats sized %d/%d, want 4", len(res.Util), len(res.MaxQueueDepth))
	}
	for r, u := range res.Util {
		if u <= 0 || u > 1 {
			t.Fatalf("replica %d utilization %v outside (0, 1]", r, u)
		}
		if res.MaxQueueDepth[r] < 1 {
			t.Fatalf("replica %d never held a request", r)
		}
	}
}

// TestReplayBitIdentical pins the determinism contract: the same scenario
// replayed on the same Sim, on a fresh Sim, and under different sweep
// parallelism yields bit-identical results.
func TestReplayBitIdentical(t *testing.T) {
	st := SyntheticStepTable(4, 8, 16, 42)
	sc := smallScenario()

	a := mustRun(t, sc, st)
	b := mustRun(t, sc, st)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("fresh-Sim replays differ:\n%+v\n%+v", a, b)
	}

	sim, err := sc.Build(st)
	if err != nil {
		t.Fatal(err)
	}
	r1 := sim.Replay()
	u1 := append([]float64(nil), r1.Util...)
	r2 := sim.Replay()
	if !reflect.DeepEqual(u1, r2.Util) || r1.P999S != r2.P999S || r1.Events != r2.Events {
		t.Fatal("repeated Replay on one Sim diverged")
	}

	grid := Grid(sc, []int{2, 4}, []float64{200, 400}, []string{"jsq", "rr", "lpt"})
	seq, err := Sweep(st, grid, 1)
	if err != nil {
		t.Fatal(err)
	}
	prev := runtime.GOMAXPROCS(0)
	runtime.GOMAXPROCS(max(2, prev))
	par, err := Sweep(st, grid, 8)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("sweep results depend on worker count")
	}
}

// TestReplaySteadyStateAllocFree pins the tentpole's 0 allocs/op claim at
// the API level (the benchmark gate pins it in CI).
func TestReplaySteadyStateAllocFree(t *testing.T) {
	st := SyntheticStepTable(4, 8, 16, 42)
	sc := smallScenario()
	sim, err := sc.Build(st)
	if err != nil {
		t.Fatal(err)
	}
	sim.Replay() // warm the ring high-water marks
	if allocs := testing.AllocsPerRun(3, func() { sim.Replay() }); allocs != 0 {
		t.Fatalf("steady-state Replay allocates %v per op, want 0", allocs)
	}
}

func TestClosedLoop(t *testing.T) {
	st := SyntheticStepTable(2, 4, 8, 1)
	sc := Scenario{
		Name:       "closed",
		FleetSize:  2,
		Arrival:    loadgen.Closed,
		Users:      32,
		ThinkMeanS: 0.05,
		HorizonS:   30,
		MaxBatch:   4,
		PostProcS:  100e-6,
		Seed:       11,
	}
	res := mustRun(t, sc, st)
	// 32 users over 30s with ~50ms think + service must cycle many times.
	if res.Requests < int64(sc.Users)*10 {
		t.Fatalf("closed loop served %d requests for %d users over %vs", res.Requests, sc.Users, sc.HorizonS)
	}
	if res.Unfinished != 0 {
		t.Fatalf("closed loop left %d unfinished", res.Unfinished)
	}
	if res.P50S <= 0 || res.MaxS > res.SimSeconds {
		t.Fatalf("closed-loop latencies implausible: %+v", res)
	}
	again := mustRun(t, sc, st)
	if !reflect.DeepEqual(res, again) {
		t.Fatal("closed-loop replay not deterministic")
	}
}

// TestPolicySeamSeparatesSchedulers is the policy-seam contract: on a
// 2-replica fleet with three simultaneous batch-1 requests of step times
// {3, 3, 4}, in-order greedy packs {3, 4} onto one replica (makespan 7)
// while LPT places the 4 first and finishes in 6 — both values exact, so
// the seam provably changes simulated outcomes.
func TestPolicySeamSeparatesSchedulers(t *testing.T) {
	st, err := NewStepTable([]string{"g"}, []string{"A", "B"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	st.Set(0, 0, 1, 3) // network A: 3s at batch 1
	st.Set(0, 1, 1, 4) // network B: 4s at batch 1
	if err := st.Validate(); err != nil {
		t.Fatal(err)
	}
	// Three requests effectively at t=0 (strictly increasing by ε), nets
	// A, A, B → step times 3, 3, 4 in arrival order. MaxBatch 1 keeps the
	// two A requests from batching together.
	tr := &Trace{
		ArrivalS: []float64{0, 1e-12, 2e-12},
		Net:      []int32{0, 0, 1},
	}
	fleet := []int32{0, 0}

	makespan := func(pol sched.Policy) float64 {
		t.Helper()
		planned, err := PlanRoute(st, fleet, tr, pol)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := NewSim(st, Config{Fleet: fleet, MaxBatch: 1, Router: RoutePlanned, Planned: planned}, tr)
		if err != nil {
			t.Fatal(err)
		}
		return sim.Replay().SimSeconds
	}

	if got := makespan(sched.InOrderPolicy{}); got != 7.0 {
		t.Errorf("in-order greedy makespan = %v, want exactly 7", got)
	}
	if got := makespan(sched.ListPolicy{}); got != 6.0 {
		t.Errorf("LPT makespan = %v, want exactly 6", got)
	}
	if got := makespan(sched.SearchPolicy{}); got != 6.0 {
		t.Errorf("local search makespan = %v, want exactly 6", got)
	}
}

// fakeSweep is a deterministic SweepPredictor for BuildStepTable tests.
type fakeSweep struct {
	gpu   string
	scale float64
	fail  bool
}

func (f fakeSweep) Name() string    { return "fake" }
func (f fakeSweep) GPUName() string { return f.gpu }
func (f fakeSweep) PredictNetwork(n *dnn.Network, batch int) (units.Seconds, error) {
	return units.Seconds(f.scale * float64(batch) * float64(len(n.Name))), nil
}
func (f fakeSweep) PredictSweep(n *dnn.Network, batches []int) ([]units.Seconds, error) {
	if f.fail {
		return nil, fmt.Errorf("fit diverged")
	}
	out := make([]units.Seconds, len(batches))
	for i, b := range batches {
		out[i], _ = f.PredictNetwork(n, b)
	}
	return out, nil
}

func TestBuildStepTable(t *testing.T) {
	nets := []*dnn.Network{{Name: "ab"}, {Name: "abc"}}
	models := []core.SweepPredictor{
		fakeSweep{gpu: "v100", scale: 1e-3},
		fakeSweep{gpu: "a100", scale: 5e-4},
	}
	st, err := BuildStepTable(models, nets, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.At(1, 1, 4); got != 5e-4*4*3 {
		t.Fatalf("At(a100, abc, 4) = %v, want %v", got, 5e-4*4*3)
	}
	if got := st.At(0, 0, 1); got != 1e-3*2 {
		t.Fatalf("At(v100, ab, 1) = %v, want %v", got, 1e-3*2)
	}
	if gp := st.GPUs(); len(gp) != 2 || gp[0] != "v100" || gp[1] != "a100" {
		t.Fatalf("GPU order %v", gp)
	}

	_, err = BuildStepTable([]core.SweepPredictor{
		fakeSweep{gpu: "v100", scale: 1e-3},
		fakeSweep{gpu: "a100", scale: 5e-4, fail: true},
	}, nets, 4)
	if err == nil {
		t.Fatal("failing model accepted")
	}
}

func TestValidationErrors(t *testing.T) {
	st := SyntheticStepTable(2, 2, 4, 3)
	tr := &Trace{ArrivalS: []float64{0, 1}, Net: []int32{0, 1}}
	cases := []struct {
		name  string
		cfg   Config
		trace *Trace
	}{
		{"empty fleet", Config{}, tr},
		{"bad gpu id", Config{Fleet: []int32{5}}, tr},
		{"batch too big", Config{Fleet: []int32{0}, MaxBatch: 9}, tr},
		{"no trace open loop", Config{Fleet: []int32{0}}, nil},
		{"planned length", Config{Fleet: []int32{0}, Router: RoutePlanned, Planned: []int32{0}}, tr},
		{"planned replica range", Config{Fleet: []int32{0}, Router: RoutePlanned, Planned: []int32{0, 3}}, tr},
		{"closed with trace", Config{Fleet: []int32{0}, Users: 2, HorizonS: 1}, tr},
		{"closed no horizon", Config{Fleet: []int32{0}, Users: 2}, nil},
	}
	for _, c := range cases {
		if _, err := NewSim(st, c.cfg, c.trace); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	// Scenario.Build rejects what it cannot turn into a Config with an
	// error naming the scenario field at fault.
	scenarios := []struct {
		sc   Scenario
		want string
	}{
		{Scenario{Name: "closed without users", FleetSize: 1, Arrival: loadgen.Closed, HorizonS: 1}, "Users > 0"},
		{Scenario{Name: "planned closed loop", FleetSize: 1, Users: 2, HorizonS: 1, Policy: "lpt"}, "open-loop trace"},
		{Scenario{Name: "no requests", FleetSize: 1, RateRPS: 10}, "Requests > 0"},
		{Scenario{Name: "no fleet", RateRPS: 10, Requests: 10}, "no fleet"},
	}
	for _, c := range scenarios {
		if _, err := c.sc.Build(st); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("scenario %q: error %v, want one containing %q", c.sc.Name, err, c.want)
		}
	}
	if err := (&Trace{ArrivalS: []float64{0, 0}, Net: []int32{0, 0}}).Validate(2); err == nil {
		t.Error("non-increasing trace accepted")
	}
	if err := (&Trace{ArrivalS: []float64{0}, Net: []int32{7}}).Validate(2); err == nil {
		t.Error("out-of-range net accepted")
	}
	if _, _, err := ParsePolicy("optimal"); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestGridAndCapacity(t *testing.T) {
	st := SyntheticStepTable(1, 4, 8, 9)
	base := Scenario{
		Arrival:   loadgen.Poisson,
		Requests:  5_000,
		MaxBatch:  8,
		PostProcS: 100e-6,
		Seed:      5,
	}
	grid := Grid(base, []int{1, 2, 4, 8}, []float64{100, 200}, []string{"jsq"})
	if len(grid) != 8 {
		t.Fatalf("grid size %d, want 8", len(grid))
	}
	results, err := Sweep(st, grid, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Bigger fleets at a fixed rate cannot make the p99 worse.
	for _, rate := range []float64{100, 200} {
		var prev float64 = math.Inf(1)
		for _, r := range results {
			if r.Scenario.RateRPS != rate {
				continue
			}
			if r.Result.P99S > prev*1.0000001 {
				t.Errorf("rate %v: p99 %v at fleet %d worse than smaller fleet's %v",
					rate, r.Result.P99S, r.Scenario.FleetSize, prev)
			}
			prev = r.Result.P99S
		}
	}

	// The answer is the smallest feasible size whatever the grid order,
	// and -1 only when no size meets the target.
	desc, err := Sweep(st, Grid(base, []int{8, 4, 2, 1}, []float64{100, 200}, []string{"jsq"}), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		targetS float64
		want    map[string]int
	}{
		{1, map[string]int{"r100-jsq": 2, "r200-jsq": 4}},
		{0.05, map[string]int{"r100-jsq": 4, "r200-jsq": 8}},
		{0.03, map[string]int{"r100-jsq": -1, "r200-jsq": -1}},
	} {
		if got := MinFleetForP99(results, c.targetS); !maps.Equal(got, c.want) {
			t.Errorf("ascending grid, target %vs: capacity answer %v, want %v", c.targetS, got, c.want)
		}
		if got := MinFleetForP99(desc, c.targetS); !maps.Equal(got, c.want) {
			t.Errorf("descending grid, target %vs: capacity answer %v, want %v", c.targetS, got, c.want)
		}
	}
}

// plannedGrid is the capacity grid the plan-memo test and benchmark share:
// three fleet sizes × three rates × an online and two planned policies.
func plannedGrid(requests int) []Scenario {
	base := Scenario{
		Arrival:   loadgen.Poisson,
		Requests:  requests,
		MaxBatch:  8,
		PostProcS: 200e-6,
		Seed:      5,
	}
	return Grid(base, []int{2, 4, 8}, []float64{20, 40, 80}, []string{"jsq", "lpt", "search"})
}

// TestSweepSharesPlannedRoutes pins Sweep's per-call plan memo. Every cell
// equals its own Scenario.Run at one and four workers; the search policy
// runs once per fleet size, not once per (fleet size, rate) cell; and cells
// that must not share a plan get their own: the grid's lpt and search
// cells pose one problem under two policies, and the near misses differ
// from a grid cell only in the fleet's GPU types, the seed's network draw
// or the request count.
func TestSweepSharesPlannedRoutes(t *testing.T) {
	st := SyntheticStepTable(4, 8, 8, 13)
	grid := plannedGrid(1000)
	f4 := grid[14] // f4-r40-search
	if f4.Name != "f4-r40-search" {
		t.Fatalf("grid cell 14 is %s", f4.Name)
	}
	otherFleet, otherSeed, fewer := f4, f4, f4
	otherFleet.Name, otherFleet.Fleet = "f4-r40-search-fleet3322", []int32{3, 3, 2, 2}
	otherSeed.Name, otherSeed.Seed = "f4-r40-search-seed6", 6
	fewer.Name, fewer.Requests = "f4-r40-search-500req", 500
	mixed := append(append([]Scenario(nil), grid...), otherFleet, otherSeed, fewer)

	want := make([]ScenarioResult, len(mixed))
	for i, sc := range mixed {
		want[i] = ScenarioResult{Scenario: sc, Result: mustRun(t, sc, st)}
	}
	searches := obs.Default().Counter("sched_searches_total", "")
	prev := runtime.GOMAXPROCS(0)
	runtime.GOMAXPROCS(max(2, prev))
	defer runtime.GOMAXPROCS(prev)
	for _, workers := range []int{1, 4} {
		before := searches.Value()
		got, err := Sweep(st, grid, workers)
		if err != nil {
			t.Fatal(err)
		}
		if n := searches.Value() - before; n != 3 {
			t.Errorf("workers %d: %d searches for the 27-cell grid, want 3", workers, n)
		}
		if !reflect.DeepEqual(got, want[:len(grid)]) {
			t.Errorf("workers %d: grid sweep differs from per-scenario Run", workers)
		}

		got, err = Sweep(st, mixed, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range mixed {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("workers %d: %s differs from its own Run", workers, mixed[i].Name)
			}
		}
	}
}

func TestRingGrowsAndKeepsFIFO(t *testing.T) {
	r := newRing(2)
	for i := int32(0); i < 100; i++ {
		if r.full() {
			r.grow()
		}
		r.push(i)
	}
	for i := int32(0); i < 100; i++ {
		if got := r.pop(); got != i {
			t.Fatalf("pop %d = %d", i, got)
		}
	}
}

func TestHeapOrdersByTimeThenSeq(t *testing.T) {
	h := newEventHeap(8)
	h.push(3.0, evArrival, 0)
	h.push(1.0, evArrival, 1)
	h.push(2.0, evArrival, 2)
	h.push(1.0, evFree, 3) // same time as idx 1, pushed later
	want := []int32{1, 3, 2, 0}
	for i, w := range want {
		if got := h.pop(); got.idx != w {
			t.Fatalf("pop %d: idx %d, want %d", i, got.idx, w)
		}
	}
}

func TestTimeline(t *testing.T) {
	st := SyntheticStepTable(2, 2, 4, 6)
	proc := loadgen.NewPoissonArrivals(200, 3)
	tr, err := BuildTrace(proc, 2, 500, 4)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSim(st, Config{Fleet: []int32{0, 1}, MaxBatch: 4, Router: RouteJSQ, RecordTimeline: true}, tr)
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Replay()
	spans := sim.Timeline()
	if int64(len(spans)) != res.Batches {
		t.Fatalf("%d spans for %d batches", len(spans), res.Batches)
	}
	var total int64
	for _, s := range spans {
		if s.DurS <= 0 || s.Size < 1 || s.Replica < 0 || s.Replica > 1 {
			t.Fatalf("bad span %+v", s)
		}
		total += int64(s.Size)
	}
	if total != res.Requests {
		t.Fatalf("spans cover %d requests of %d", total, res.Requests)
	}
}

// BenchmarkSweepPlanned times one capacity question over the 27-cell
// planned grid at 2000 requests per cell on one worker — the shape of a
// capacity-plan op, on the synthetic oracle. A diagnostic, not a gate.
func BenchmarkSweepPlanned(b *testing.B) {
	st := SyntheticStepTable(4, 8, 8, 13)
	grid := plannedGrid(2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Sweep(st, grid, 1)
		if err != nil {
			b.Fatal(err)
		}
		sweepSink = res
	}
}

var sweepSink []ScenarioResult

// BenchmarkFleetSimReplay is the gated throughput benchmark: one
// single-goroutine replay of a 100k-request Poisson trace against a
// heterogeneous 4-GPU fleet, the scenario the ≥1M requests/sec single-core
// claim is pinned on. ReportAllocs feeds the absolute 0 allocs/op gate;
// the req/s and events/s metrics feed the throughput floor and the
// fleetsim_events_per_sec baseline figure in scripts/bench_compare.sh.
func BenchmarkFleetSimReplay(b *testing.B) {
	st := SyntheticStepTable(4, 8, 16, 42)
	proc := loadgen.NewPoissonArrivals(2000, 7)
	tr, err := BuildTrace(proc, 8, 100_000, 7)
	if err != nil {
		b.Fatal(err)
	}
	sim, err := NewSim(st, Config{
		Fleet:     []int32{0, 1, 2, 3},
		MaxBatch:  8,
		PostProcS: 200e-6,
		Router:    RouteJSQ,
	}, tr)
	if err != nil {
		b.Fatal(err)
	}
	res := sim.Replay() // warm ring high-water marks and the scratch sort
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = sim.Replay()
	}
	b.StopTimer()
	if res.Requests != int64(tr.Len()) {
		b.Fatalf("served %d of %d", res.Requests, tr.Len())
	}
	secs := b.Elapsed().Seconds()
	b.ReportMetric(float64(res.Requests)*float64(b.N)/secs, "req/s")
	b.ReportMetric(float64(res.Events)*float64(b.N)/secs, "events/s")
}
