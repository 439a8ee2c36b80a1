package sched

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func twoGPUTimes() Times {
	return Times{
		"fast": {1, 2, 3, 4},
		"slow": {2, 4, 6, 8},
	}
}

func TestChooseGPU(t *testing.T) {
	tm := Times{
		"a": {1, 5, 3},
		"b": {2, 4, 3},
	}
	got, err := ChooseGPU(tm, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "a"} // ties go to the lexicographically first
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ChooseGPU = %v, want %v", got, want)
		}
	}
}

func TestBruteForceBeatsSingleGPU(t *testing.T) {
	tm := twoGPUTimes()
	a, err := BruteForce(tm, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Everything on "fast" costs 10; splitting must do better.
	if a.Makespan >= 10 {
		t.Fatalf("brute force makespan %v not better than single GPU", a.Makespan)
	}
	// Known optimum: fast {3,4}=7 or {1,2,4}=7, slow covers the rest.
	if a.Makespan != 7 {
		t.Fatalf("makespan = %v, want 7", a.Makespan)
	}
	// Loads must be consistent with the assignment.
	var check float64
	for _, l := range a.Load {
		if l > check {
			check = l
		}
	}
	if check != a.Makespan {
		t.Fatalf("makespan %v != max load %v", a.Makespan, check)
	}
}

func TestBruteForceSingleTask(t *testing.T) {
	tm := Times{"a": {5}, "b": {3}}
	a, err := BruteForce(tm, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.GPUOf[0] != "b" || a.Makespan != 3 {
		t.Fatalf("assignment = %+v", a)
	}
}

func TestBruteForceLimits(t *testing.T) {
	tm := Times{"a": make([]float64, 20), "b": make([]float64, 20)}
	for i := range tm["a"] {
		tm["a"][i], tm["b"][i] = 1, 1
	}
	if _, err := BruteForce(tm, 20); err == nil {
		t.Fatal("20 tasks should exceed the brute-force limit")
	}
}

func TestBruteForceSearchSpaceError(t *testing.T) {
	// 20 tasks on 2 GPUs: over the task limit.
	tm := Times{"a": make([]float64, 20), "b": make([]float64, 20)}
	for i := range tm["a"] {
		tm["a"][i], tm["b"][i] = 1, 2
	}
	_, err := BruteForce(tm, 20)
	if !errors.Is(err, ErrSearchSpace) {
		t.Fatalf("20-task error = %v, want ErrSearchSpace", err)
	}

	// 5 GPUs: over the GPU limit.
	wide := Times{}
	for _, g := range []string{"a", "b", "c", "d", "e"} {
		wide[g] = []float64{1, 2}
	}
	_, err = BruteForce(wide, 2)
	if !errors.Is(err, ErrSearchSpace) {
		t.Fatalf("5-GPU error = %v, want ErrSearchSpace", err)
	}

	// A validation error must NOT be ErrSearchSpace.
	_, err = BruteForce(Times{}, 3)
	if err == nil || errors.Is(err, ErrSearchSpace) {
		t.Fatalf("validation error = %v, want a non-search-space error", err)
	}
}

func TestAutoFallsBackToSearch(t *testing.T) {
	// In-limit case: Auto must return the brute-force optimum and exact=true.
	small := Times{"a": {1, 5}, "b": {5, 1}}
	a, exact, err := Auto(small, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !exact {
		t.Fatal("2 tasks on 2 GPUs should be solved exactly")
	}
	if a.Makespan != 1 {
		t.Fatalf("optimal makespan = %v, want 1", a.Makespan)
	}

	// Over-limit case: Auto routes to local search, which starts from an
	// LPT construction and only improves — it must never lose to Greedy.
	big := Times{"a": make([]float64, 24), "b": make([]float64, 24)}
	for i := range big["a"] {
		big["a"][i], big["b"][i] = float64(i+1), float64(24-i)
	}
	a, exact, err = Auto(big, 24)
	if err != nil {
		t.Fatal(err)
	}
	if exact {
		t.Fatal("24 tasks should not be reported as exact")
	}
	g, err := Greedy(big, 24)
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan > g.Makespan+1e-12 {
		t.Fatalf("Auto fallback makespan = %v worse than Greedy = %v", a.Makespan, g.Makespan)
	}
	if len(a.GPUOf) != 24 || len(a.Load) != 2 {
		t.Fatalf("fallback assignment malformed: %+v", a)
	}

	// Validation errors pass through instead of triggering the fallback.
	if _, _, err := Auto(Times{}, 1); err == nil {
		t.Fatal("empty Times should error")
	}
}

// TestAutoRoutingTable pins the size thresholds that pick brute force vs
// the heuristic path: the exact flag is the observable routing decision.
func TestAutoRoutingTable(t *testing.T) {
	cases := []struct {
		name      string
		nTasks    int
		nGPUs     int
		wantExact bool
	}{
		{"tiny", 2, 2, true},
		{"at-task-limit", maxBruteForceTasks, 2, true},
		{"at-gpu-limit", 4, 4, true},
		{"over-task-limit", maxBruteForceTasks + 1, 2, false},
		{"over-gpu-limit", 4, 5, false},
		{"both-over", 40, 8, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dt := Synthetic(tc.nTasks, tc.nGPUs, 7)
			a, exact, err := Auto(dt.Times(), tc.nTasks)
			if err != nil {
				t.Fatal(err)
			}
			if exact != tc.wantExact {
				t.Fatalf("Auto(%d tasks, %d GPUs) exact = %v, want %v",
					tc.nTasks, tc.nGPUs, exact, tc.wantExact)
			}
			if len(a.GPUOf) != tc.nTasks {
				t.Fatalf("assigned %d of %d tasks", len(a.GPUOf), tc.nTasks)
			}
		})
	}
}

func TestGreedyInOrder(t *testing.T) {
	tm := twoGPUTimes()
	a, err := GreedyInOrder(tm, 4)
	if err != nil {
		t.Fatal(err)
	}
	// In input order on {fast: 1,2,3,4 / slow: 2,4,6,8}: task 0 → fast
	// (1 < 2), task 1 → slow (1+2 vs 2 ties at... fast finish 3, slow 4 →
	// fast), replaying the earliest-finish rule by hand gives:
	want, err := MakespanOf(a.GPUOf, tm)
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != want {
		t.Fatalf("reported makespan %v inconsistent with assignment (%v)", a.Makespan, want)
	}
	// Order sensitivity is the point of the variant: six unit tasks then
	// one big task. In-order splits the units 3/3 and lands the big task
	// on top (makespan 9); LPT places the big task first and packs the
	// units opposite it (makespan 6).
	adv := Times{
		"g0": {1, 1, 1, 1, 1, 1, 6},
		"g1": {1, 1, 1, 1, 1, 1, 6},
	}
	inOrder, err := GreedyInOrder(adv, 7)
	if err != nil {
		t.Fatal(err)
	}
	lpt, err := Greedy(adv, 7)
	if err != nil {
		t.Fatal(err)
	}
	if inOrder.Makespan != 9 {
		t.Fatalf("in-order makespan = %v, want 9", inOrder.Makespan)
	}
	if lpt.Makespan != 6 {
		t.Fatalf("LPT makespan = %v, want 6", lpt.Makespan)
	}

	// An empty queue places nothing and reports every GPU idle.
	want0 := Assignment{GPUOf: []string{}, Load: map[string]float64{"a": 0}}
	if got, err := GreedyInOrder(Times{"a": {}}, 0); err != nil || !reflect.DeepEqual(got, want0) {
		t.Fatalf("GreedyInOrder on an empty queue = %+v, %v; want %+v", got, err, want0)
	}
}

func TestGreedyFeasibleAndBounded(t *testing.T) {
	tm := twoGPUTimes()
	g, err := Greedy(tm, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BruteForce(tm, 4)
	if err != nil {
		t.Fatal(err)
	}
	if g.Makespan < b.Makespan {
		t.Fatalf("greedy %v beat brute force %v", g.Makespan, b.Makespan)
	}
	if len(g.GPUOf) != 4 {
		t.Fatalf("greedy assigned %d tasks", len(g.GPUOf))
	}

	// An empty queue places nothing and reports every GPU idle.
	want0 := Assignment{GPUOf: []string{}, Load: map[string]float64{"a": 0}}
	if got, err := Greedy(Times{"a": {}}, 0); err != nil || !reflect.DeepEqual(got, want0) {
		t.Fatalf("Greedy on an empty queue = %+v, %v; want %+v", got, err, want0)
	}
}

func TestMakespanOf(t *testing.T) {
	tm := twoGPUTimes()
	span, err := MakespanOf([]string{"fast", "fast", "slow", "slow"}, tm)
	if err != nil {
		t.Fatal(err)
	}
	if span != 14 { // slow: 6+8
		t.Fatalf("makespan = %v, want 14", span)
	}
	if _, err := MakespanOf([]string{"nope", "fast", "fast", "fast"}, tm); err == nil {
		t.Fatal("unknown GPU should error")
	}
}

func TestValidation(t *testing.T) {
	if err := (Times{}).Validate(1); err == nil {
		t.Fatal("empty Times should error")
	}
	if err := (Times{"a": {1, 2}}).Validate(3); err == nil {
		t.Fatal("wrong count should error")
	}
	if err := (Times{"a": {1, -2}}).Validate(2); err == nil {
		t.Fatal("negative time should error")
	}
	if err := (Times{"a": {1, math.NaN()}}).Validate(2); err == nil {
		t.Fatal("NaN time should error")
	}
}

// TestBruteForceOptimal: no random assignment may beat the brute-force
// makespan.
func TestBruteForceOptimal(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rnd := rand.New(rand.NewSource(seed))
		n := int(nRaw%6) + 2
		tm := Times{"g0": make([]float64, n), "g1": make([]float64, n)}
		for i := 0; i < n; i++ {
			tm["g0"][i] = rnd.Float64() + 0.01
			tm["g1"][i] = rnd.Float64() + 0.01
		}
		best, err := BruteForce(tm, n)
		if err != nil {
			return false
		}
		for trial := 0; trial < 30; trial++ {
			gpuOf := make([]string, n)
			for i := range gpuOf {
				gpuOf[i] = []string{"g0", "g1"}[rnd.Intn(2)]
			}
			span, err := MakespanOf(gpuOf, tm)
			if err != nil {
				return false
			}
			if span < best.Makespan-1e-12 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(19))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestGreedyNeverWorseThanTwiceOptimal: the LPT heuristic on two unrelated
// machines is within 2× of the optimum for these instance sizes (checked
// empirically against brute force).
func TestGreedyNeverWorseThanTwiceOptimal(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rnd := rand.New(rand.NewSource(seed))
		n := int(nRaw%8) + 2
		tm := Times{"g0": make([]float64, n), "g1": make([]float64, n)}
		for i := 0; i < n; i++ {
			tm["g0"][i] = rnd.Float64() + 0.01
			tm["g1"][i] = rnd.Float64() + 0.01
		}
		g, err1 := Greedy(tm, n)
		b, err2 := BruteForce(tm, n)
		if err1 != nil || err2 != nil {
			return false
		}
		return g.Makespan <= 2*b.Makespan+1e-12
	}
	cfg := &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(23))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestThreeGPUs(t *testing.T) {
	tm := Times{
		"a": {3, 3, 3},
		"b": {3, 3, 3},
		"c": {3, 3, 3},
	}
	a, err := BruteForce(tm, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != 3 {
		t.Fatalf("three identical tasks on three GPUs: makespan %v, want 3", a.Makespan)
	}
}
