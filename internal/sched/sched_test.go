package sched

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// tableOf builds a table with one row per GPU, in the given order.
func tableOf(t testing.TB, gpus []string, rows ...[]float64) *DenseTimes {
	t.Helper()
	dt, err := NewDenseTimes(gpus, len(rows[0]))
	if err != nil {
		t.Fatal(err)
	}
	for g, row := range rows {
		copy(dt.Row(g), row)
	}
	return dt
}

func twoGPUTimes(t testing.TB) *DenseTimes {
	return tableOf(t, []string{"fast", "slow"}, []float64{1, 2, 3, 4}, []float64{2, 4, 6, 8})
}

// randomTwoGPU draws an n-task table over g0 and g1 with times in
// [0.01, 1.01).
func randomTwoGPU(t testing.TB, rnd *rand.Rand, n int) *DenseTimes {
	dt, err := NewDenseTimes([]string{"g0", "g1"}, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		dt.Row(0)[i] = rnd.Float64() + 0.01
		dt.Row(1)[i] = rnd.Float64() + 0.01
	}
	return dt
}

func TestChooseGPU(t *testing.T) {
	dt := tableOf(t, []string{"a", "b"}, []float64{1, 5, 3}, []float64{2, 4, 3})
	got, err := ChooseGPU(dt)
	if err != nil {
		t.Fatal(err)
	}
	want := []int32{0, 1, 0} // ties go to the lowest id
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ChooseGPU = %v, want %v", got, want)
	}
	if _, err := ChooseGPU(nil); err == nil {
		t.Fatal("nil table should error")
	}
}

func TestBruteForceBeatsSingleGPU(t *testing.T) {
	dt := twoGPUTimes(t)
	a, err := BruteForce(dt)
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
	a, err := BruteForce(tableOf(t, []string{"a", "b"}, []float64{5}, []float64{3}))
	if err != nil {
		t.Fatal(err)
	}
	if a.GPUOf[0] != 1 || a.Makespan != 3 {
		t.Fatalf("assignment = %+v", a)
	}
}

// uniformTable is an n-task table over the GPUs with every time v.
func uniformTable(t testing.TB, gpus []string, n int, v float64) *DenseTimes {
	dt, err := NewDenseTimes(gpus, n)
	if err != nil {
		t.Fatal(err)
	}
	for g := range gpus {
		for i := range dt.Row(g) {
			dt.Row(g)[i] = v
		}
	}
	return dt
}

func TestBruteForceLimits(t *testing.T) {
	if _, err := BruteForce(uniformTable(t, []string{"a", "b"}, 20, 1)); err == nil {
		t.Fatal("20 tasks should exceed the brute-force limit")
	}
}

func TestBruteForceSearchSpaceError(t *testing.T) {
	// 20 tasks on 2 GPUs: over the task limit.
	dt := uniformTable(t, []string{"a", "b"}, 20, 1)
	for i := range dt.Row(1) {
		dt.Row(1)[i] = 2
	}
	_, err := BruteForce(dt)
	if !errors.Is(err, ErrSearchSpace) {
		t.Fatalf("20-task error = %v, want ErrSearchSpace", err)
	}

	// 5 GPUs: over the GPU limit.
	_, err = BruteForce(uniformTable(t, []string{"a", "b", "c", "d", "e"}, 2, 1))
	if !errors.Is(err, ErrSearchSpace) {
		t.Fatalf("5-GPU error = %v, want ErrSearchSpace", err)
	}

	// Validation errors must NOT be ErrSearchSpace.
	for _, bad := range []*DenseTimes{nil, uniformTable(t, []string{"a"}, 3, 0)} {
		if _, err := BruteForce(bad); err == nil || errors.Is(err, ErrSearchSpace) {
			t.Fatalf("validation error = %v, want a non-search-space error", err)
		}
	}
}

func TestAutoFallsBackToSearch(t *testing.T) {
	// In-limit case: Auto must return the brute-force optimum and exact=true.
	small := tableOf(t, []string{"a", "b"}, []float64{1, 5}, []float64{5, 1})
	a, exact, err := Auto(small)
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
	// LPT construction and only improves — it must never lose to plain LPT.
	big, err := NewDenseTimes([]string{"a", "b"}, 24)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 24; i++ {
		big.Row(0)[i], big.Row(1)[i] = float64(i+1), float64(24-i)
	}
	a, exact, err = Auto(big)
	if err != nil {
		t.Fatal(err)
	}
	if exact {
		t.Fatal("24 tasks should not be reported as exact")
	}
	lpt, err := ListSchedule(big)
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan > lpt.Makespan+1e-12 {
		t.Fatalf("Auto fallback makespan = %v worse than LPT = %v", a.Makespan, lpt.Makespan)
	}
	if len(a.GPUOf) != 24 || len(a.Load) != 2 {
		t.Fatalf("fallback assignment malformed: %+v", a)
	}

	// Validation errors pass through instead of triggering the fallback.
	if _, _, err := Auto(uniformTable(t, []string{"a"}, 1, 0)); err == nil {
		t.Fatal("zero-filled table should error")
	}
	if _, _, err := Auto(nil); err == nil {
		t.Fatal("nil table should error")
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
			a, exact, err := Auto(Synthetic(tc.nTasks, tc.nGPUs, 7))
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

// TestGreedyInOrder pins the in-order list-scheduling rule (InOrderPolicy)
// against LPT (ListSchedule).
func TestGreedyInOrder(t *testing.T) {
	dt := twoGPUTimes(t)
	a, err := InOrderPolicy{}.Schedule(dt)
	if err != nil {
		t.Fatal(err)
	}
	// In input order on {fast: 1,2,3,4 / slow: 2,4,6,8} each task goes to
	// its earliest-finishing GPU: fast, fast, fast (finishing at 6 on
	// either, a tie the lower id wins), slow.
	if want := []int32{0, 0, 0, 1}; !reflect.DeepEqual(a.GPUOf, want) {
		t.Fatalf("in-order placement = %v, want %v", a.GPUOf, want)
	}
	want, err := MakespanOf(a.GPUOf, dt.GPUs(), dt)
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
	units := []float64{1, 1, 1, 1, 1, 1, 6}
	adv := tableOf(t, []string{"g0", "g1"}, units, units)
	inOrder, err := InOrderPolicy{}.Schedule(adv)
	if err != nil {
		t.Fatal(err)
	}
	lpt, err := ListSchedule(adv)
	if err != nil {
		t.Fatal(err)
	}
	if inOrder.Makespan != 9 {
		t.Fatalf("in-order makespan = %v, want 9", inOrder.Makespan)
	}
	if lpt.Makespan != 6 {
		t.Fatalf("LPT makespan = %v, want 6", lpt.Makespan)
	}
}

// TestGreedyFeasibleAndBounded: plain LPT places every task and never beats
// the exhaustive optimum.
func TestGreedyFeasibleAndBounded(t *testing.T) {
	dt := twoGPUTimes(t)
	g, err := ListSchedule(dt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BruteForce(dt)
	if err != nil {
		t.Fatal(err)
	}
	if g.Makespan < b.Makespan {
		t.Fatalf("LPT %v beat brute force %v", g.Makespan, b.Makespan)
	}
	if len(g.GPUOf) != 4 {
		t.Fatalf("LPT assigned %d tasks", len(g.GPUOf))
	}
}

// TestEmptyQueue: every entry point answers a zero-task table with no
// placements, every GPU at zero load and a zero makespan.
func TestEmptyQueue(t *testing.T) {
	for _, gpus := range [][]string{{"a"}, {"a", "b"}, {"a", "b", "c", "d", "e"}} {
		dt, err := NewDenseTimes(gpus, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := &DenseAssignment{GPUOf: []int32{}, Load: make([]float64, len(gpus))}
		run := map[string]func() (*DenseAssignment, error){
			"BruteForce": func() (*DenseAssignment, error) { return BruteForce(dt) },
			"Auto": func() (*DenseAssignment, error) {
				a, _, err := Auto(dt)
				return a, err
			},
			"ListSchedule":  func() (*DenseAssignment, error) { return ListSchedule(dt) },
			"InOrderPolicy": func() (*DenseAssignment, error) { return InOrderPolicy{}.Schedule(dt) },
			"Schedule": func() (*DenseAssignment, error) {
				res, err := Schedule(dt, SearchOptions{})
				if err != nil {
					return nil, err
				}
				if res.Makespan != 0 || res.LowerBound != 0 || res.Gap != 0 {
					t.Errorf("%d GPUs: Schedule result %+v, want all zero", len(gpus), res)
				}
				return res.Dense, nil
			},
		}
		for name, f := range run {
			if got, err := f(); err != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("%d GPUs: %s = %+v, %v; want %+v", len(gpus), name, got, err, want)
			}
		}
		if got, err := ChooseGPU(dt); err != nil || !reflect.DeepEqual(got, []int32{}) {
			t.Errorf("%d GPUs: ChooseGPU = %v, %v; want []", len(gpus), got, err)
		}
		if lb, err := LowerBound(dt); err != nil || lb != 0 {
			t.Errorf("%d GPUs: LowerBound = %v, %v; want 0", len(gpus), lb, err)
		}
		if span, err := MakespanOf([]int32{}, gpus, dt); err != nil || span != 0 {
			t.Errorf("%d GPUs: MakespanOf = %v, %v; want 0", len(gpus), span, err)
		}
	}
}

func TestMakespanOf(t *testing.T) {
	dt := twoGPUTimes(t)
	span, err := MakespanOf([]int32{0, 0, 1, 1}, dt.GPUs(), dt)
	if err != nil {
		t.Fatal(err)
	}
	if span != 14 { // slow: 6+8
		t.Fatalf("makespan = %v, want 14", span)
	}
	if _, err := MakespanOf([]int32{2, 0, 0, 0}, dt.GPUs(), dt); err == nil {
		t.Fatal("out-of-range GPU id should error")
	}
	if _, err := MakespanOf([]int32{0, 0, 1, 1}, []string{"slow", "fast"}, dt); err == nil {
		t.Fatal("a table whose GPU list differs should error")
	}
	if _, err := MakespanOf([]int32{0, 0, 1}, dt.GPUs(), dt); err == nil {
		t.Fatal("an assignment of the wrong length should error")
	}
}

func TestValidation(t *testing.T) {
	if _, err := NewDenseTimes(nil, 1); err == nil {
		t.Fatal("no GPUs should error")
	}
	if _, err := NewDenseTimes([]string{"a"}, -1); err == nil {
		t.Fatal("negative task count should error")
	}
	for _, bad := range []float64{0, -2, math.NaN(), math.Inf(1)} {
		if err := tableOf(t, []string{"a"}, []float64{1, bad}).Validate(); err == nil {
			t.Fatalf("time %v should fail Validate", bad)
		}
	}
}

// TestBruteForceOptimal: no random assignment may beat the brute-force
// makespan.
func TestBruteForceOptimal(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rnd := rand.New(rand.NewSource(seed))
		n := int(nRaw%6) + 2
		dt := randomTwoGPU(t, rnd, n)
		best, err := BruteForce(dt)
		if err != nil {
			return false
		}
		for trial := 0; trial < 30; trial++ {
			gpuOf := make([]int32, n)
			for i := range gpuOf {
				gpuOf[i] = int32(rnd.Intn(2))
			}
			span, err := MakespanOf(gpuOf, dt.GPUs(), dt)
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
		dt := randomTwoGPU(t, rnd, int(nRaw%8)+2)
		g, err1 := ListSchedule(dt)
		b, err2 := BruteForce(dt)
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
	a, err := BruteForce(uniformTable(t, []string{"a", "b", "c"}, 3, 3))
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != 3 {
		t.Fatalf("three identical tasks on three GPUs: makespan %v, want 3", a.Makespan)
	}
}
