package sched

import (
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/rng"
)

// dyadicInstance builds a random table whose entries are dyadic rationals
// (multiples of 2⁻²⁰ in (0, 1]): sums and differences of a few thousand of
// them are exact in float64, so incremental bookkeeping can be compared to
// a from-scratch recompute with == rather than a tolerance. With levels > 0
// each GPU's row draws its entries from levels quarter-multiples of its
// own, so tasks tie on a GPU, swaps of two tied tasks change no load, and
// loads tie across GPUs.
func dyadicInstance(nTasks, nGPUs, levels int, seed uint64) *DenseTimes {
	names := make([]string, nGPUs)
	for g := range names {
		names[g] = string(rune('a' + g))
	}
	dt, err := NewDenseTimes(names, nTasks)
	if err != nil {
		panic(err)
	}
	draw := rng.New(seed)
	vals := make([]float64, levels)
	for g := 0; g < nGPUs; g++ {
		row := dt.Row(g)
		if levels == 0 {
			for i := range row {
				row[i] = float64(1+draw.Intn(1<<20)) / (1 << 20)
			}
			continue
		}
		for k := range vals {
			vals[k] = float64(1+draw.Intn(4)) / 4
		}
		for i := range row {
			row[i] = vals[draw.Intn(levels)]
		}
	}
	return dt
}

// randomState builds a searchState over dt with a random initial
// assignment drawn from the caller's stream.
func randomState(dt *DenseTimes, draw *rng.Stream) *searchState {
	initial := make([]int32, dt.n)
	for i := range initial {
		initial[i] = int32(draw.Intn(len(dt.gpus)))
	}
	return newSearchState(dt, initial, draw.Uint64())
}

// checkStateExact compares the state's incremental loads, heap, span and
// maxExcluding against a from-scratch recompute. With dyadic times
// everything must match exactly.
func checkStateExact(t *testing.T, s *searchState, dt *DenseTimes, step string) {
	t.Helper()
	load := make([]float64, s.g)
	want := exactMakespan(dt, s.gpuOf, load)
	for g := range load {
		if s.load[g] != load[g] {
			t.Fatalf("%s: GPU %d incremental load %v != recomputed %v", step, g, s.load[g], load[g])
		}
	}
	for pos, g := range s.heapGPU {
		if int(s.heapPos[g]) != pos {
			t.Fatalf("%s: GPU %d at heap position %d, indexed at %d", step, g, pos, s.heapPos[g])
		}
		if parent := (pos - 1) / 2; pos > 0 && s.load[g] > s.load[s.heapGPU[parent]] {
			t.Fatalf("%s: heap position %d (GPU %d, load %v) above its parent %d (load %v)",
				step, pos, g, s.load[g], parent, s.load[s.heapGPU[parent]])
		}
	}
	if s.span != want {
		t.Fatalf("%s: incremental span %v != recomputed %v", step, s.span, want)
	}
	if got := s.load[s.heapGPU[0]]; got != want {
		t.Fatalf("%s: heap top load %v != recomputed max %v", step, got, want)
	}
	// Every exclusion maxExcluding answers: none (-1), one GPU, or two.
	for a := int32(-1); a < int32(s.g); a++ {
		for b := a; b < int32(s.g); b++ {
			brute := 0.0
			for g, l := range load {
				if int32(g) != a && int32(g) != b && l > brute {
					brute = l
				}
			}
			if got := s.maxExcluding(a, b); got != brute {
				t.Fatalf("%s: maxExcluding(%d, %d) = %v, brute force %v", step, a, b, got, brute)
			}
		}
	}
}

// TestIncrementalMatchesRecomputeExact is the property test behind the
// whole optimizer: replaying random move/swap sequences, the O(1)
// incremental deltas (evalMove/evalSwap predictions AND the applied state)
// must exactly match a from-scratch finishDense-style recompute.
func TestIncrementalMatchesRecomputeExact(t *testing.T) {
	for _, tc := range []struct{ n, g, levels int }{
		{5, 2, 0}, {17, 3, 0}, {64, 5, 0}, {200, 8, 0}, {333, 13, 0}, {150, 7, 0}, {400, 16, 0},
		{40, 2, 3}, {60, 3, 3}, {150, 7, 3}, {200, 8, 3}, {400, 16, 3},
	} {
		for seed := uint64(0); seed < 4; seed++ {
			dt := dyadicInstance(tc.n, tc.g, tc.levels, 1000*seed+uint64(tc.n))
			draw := rng.New(seed * 77)
			s := randomState(dt, &draw)
			checkStateExact(t, s, dt, "init")
			for step := 0; step < 500; step++ {
				i := draw.Intn(tc.n)
				if tc.g > 1 && draw.Uint64()&1 == 0 {
					to := int32(draw.Intn(tc.g - 1))
					if to >= s.gpuOf[i] {
						to++
					}
					predicted := s.evalMove(i, to)
					s.applyMove(i, to)
					if s.span != predicted {
						t.Fatalf("move step %d: evalMove predicted %v, applied span %v", step, predicted, s.span)
					}
				} else {
					j := draw.Intn(tc.n)
					if s.gpuOf[i] == s.gpuOf[j] {
						continue
					}
					predicted := s.evalSwap(i, j)
					s.applySwap(i, j)
					if s.span != predicted {
						t.Fatalf("swap step %d: evalSwap predicted %v, applied span %v", step, predicted, s.span)
					}
				}
				checkStateExact(t, s, dt, "step")
			}
		}
	}
}

// TestIncumbentMatchesEagerCopy replays the random move/swap walks of
// TestIncrementalMatchesRecomputeExact through noteCommit and checks the
// incumbent after every commit against a copy taken at every strict
// improvement, which is what the search kept before it copied only when
// leaving the incumbent. It runs on dyadic times and on Synthetic's
// non-dyadic ones, where incremental loads drift from a recompute by
// rounding.
func TestIncumbentMatchesEagerCopy(t *testing.T) {
	for _, tc := range []struct{ n, g, levels int }{
		{5, 2, 0}, {64, 5, 0}, {200, 8, 0}, {40, 2, 3}, {150, 7, 3},
	} {
		for seed := uint64(0); seed < 4; seed++ {
			dyadic := dyadicInstance(tc.n, tc.g, tc.levels, 1000*seed+uint64(tc.n))
			for _, dt := range []*DenseTimes{dyadic, Synthetic(tc.n, tc.g, int64(seed))} {
				draw := rng.New(seed * 77)
				s := randomState(dt, &draw)
				wantSpan, want := s.span, slices.Clone(s.gpuOf)
				for step := 0; step < 500; step++ {
					i := draw.Intn(tc.n)
					gi := s.gpuOf[i]
					j, gj := i, gi
					if draw.Uint64()&1 == 0 {
						to := int32(draw.Intn(tc.g - 1))
						if to >= gi {
							to++
						}
						s.applyMove(i, to)
					} else {
						j = draw.Intn(tc.n)
						if gj = s.gpuOf[j]; gi == gj {
							continue
						}
						s.applySwap(i, j)
					}
					s.noteCommit(i, gi, j, gj)
					if s.span < wantSpan {
						wantSpan, want = s.span, slices.Clone(s.gpuOf)
					}
					if s.bestSpan != wantSpan || !slices.Equal(s.incumbent(), want) {
						t.Fatalf("n=%d g=%d seed %d step %d: incumbent span %v differs from the eager copy's %v, or its assignment does",
							tc.n, tc.g, seed, step, s.bestSpan, wantSpan)
					}
				}
			}
		}
	}
}

// TestSwapEvalMatchesCommit: on Synthetic's non-dyadic times, where the
// order of a float sum changes its rounding, every random swap's evaluated
// span equals the span its commit leaves, bit for bit, so annealing and
// descent accept or reject a swap on the span they then hold.
func TestSwapEvalMatchesCommit(t *testing.T) {
	swaps := 0
	for seed := int64(0); seed < 20; seed++ {
		dt := Synthetic(300, 6, seed)
		draw := rng.New(uint64(seed))
		s := randomState(dt, &draw)
		for step := 0; step < 8000; step++ {
			i, j := draw.Intn(dt.n), draw.Intn(dt.n)
			if s.gpuOf[i] == s.gpuOf[j] {
				continue
			}
			evaluated := s.evalSwap(i, j)
			s.applySwap(i, j)
			swaps++
			if math.Float64bits(s.span) != math.Float64bits(evaluated) {
				t.Fatalf("seed %d step %d: swap (%d, %d) evaluated span %v, committed %v",
					seed, step, i, j, evaluated, s.span)
			}
		}
	}
	if swaps < 100000 {
		t.Fatalf("only %d swaps checked", swaps)
	}
}

// TestSearchIncumbentIsBestSpan runs whole restarts, annealing then
// descent, on dyadic times, where incremental loads are exact, and checks
// after each phase that the incumbent's recomputed makespan is the best
// span the search recorded. A commit site that moves tasks without noting
// the commit leaves the incumbent without copying it out, and fails here.
func TestSearchIncumbentIsBestSpan(t *testing.T) {
	for _, tc := range []struct{ n, g, levels, moves int }{
		{12, 3, 0, 4000}, {40, 4, 3, 8000}, {300, 6, 0, 20000}, {600, 8, 3, 20000},
	} {
		for seed := uint64(0); seed < 6; seed++ {
			dt := dyadicInstance(tc.n, tc.g, tc.levels, 31*seed+uint64(tc.n))
			draw := rng.New(seed)
			s := randomState(dt, &draw)
			t0, cool := annealSchedule(taskMins(dt), dt.n, tc.moves)
			load := make([]float64, tc.g)
			s.anneal(tc.moves, t0, cool)
			if got := exactMakespan(dt, s.incumbent(), load); got != s.bestSpan || s.bestSpan > s.span {
				t.Fatalf("n=%d seed %d after annealing: incumbent makespan %v, best span %v, current span %v",
					tc.n, seed, got, s.bestSpan, s.span)
			}
			s.descend()
			if got := exactMakespan(dt, s.incumbent(), load); got != s.bestSpan || s.bestSpan > s.span {
				t.Fatalf("n=%d seed %d after descent: incumbent makespan %v, best span %v, current span %v",
					tc.n, seed, got, s.bestSpan, s.span)
			}
		}
	}
}

// TestSwapKeepsHeapWhenRootAndChildDrop: one swap lowers both the root GPU
// and its child below a grandchild. Fixing the child while the root's load
// is already lowered would lift the third GPU to the root and leave the
// larger grandchild under it, so the state's span would not be the
// makespan.
func TestSwapKeepsHeapWhenRootAndChildDrop(t *testing.T) {
	dt, err := NewDenseTimes([]string{"a", "b", "c", "d"}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for g, row := range [4][4]float64{
		{10, 6, 1, 1},
		{6.5, 9, 1, 1},
		{1, 1, 7, 1},
		{1, 1, 1, 8},
	} {
		copy(dt.Row(g), row[:])
	}
	// Task g starts on GPU g: a (10) heads the heap over b (9) and c (7),
	// with d (8) under b.
	s := newSearchState(dt, []int32{0, 1, 2, 3}, 1)
	checkStateExact(t, s, dt, "init")
	if !slices.Equal(s.heapGPU, []int32{0, 1, 2, 3}) {
		t.Fatalf("initial heap %v, want [0 1 2 3]", s.heapGPU)
	}
	// Swapping task 1 (on b) with task 0 (on a) lowers b to 6.5 and a to 6.
	predicted := s.evalSwap(1, 0)
	s.applySwap(1, 0)
	if predicted != 8 || s.span != predicted {
		t.Fatalf("evalSwap predicted %v, applied span %v; the makespan is 8", predicted, s.span)
	}
	checkStateExact(t, s, dt, "swap")
}

// TestAcceptDrawMatchesExp: the Taylor-bound rejection decides exactly as
// u < math.Exp(-x) over the x range accept reaches, on seeded draws, at
// u = math.Exp(-x) and at the bound's own threshold, each with its two
// float neighbours.
func TestAcceptDrawMatchesExp(t *testing.T) {
	draw := rng.New(29)
	check := func(u, x float64) {
		if got, want := acceptDraw(u, x), u < math.Exp(-x); got != want {
			t.Fatalf("acceptDraw(%v, %v) = %v, want %v", u, x, got, want)
		}
	}
	near := func(u, x float64) {
		check(math.Nextafter(u, 0), x)
		check(u, x)
		check(math.Nextafter(u, 1), x)
	}
	for k := 0; k < 1_000_000; k++ {
		// Cubing concentrates x near 0, where the cubic and e^x nearly agree.
		v := draw.Float64()
		x := 30 * v * v * v
		check(draw.Float64(), x)
		near(math.Exp(-x), x)
		near((1+1e-9)/(1+x*(1+x*(0.5+x/6))), x)
	}
}

// TestIncrementalDriftBounded repeats the replay with arbitrary floats: the
// incremental span may drift from the exact recompute only within 1e-12
// relative — the bound the final finishDense pass then clears entirely.
func TestIncrementalDriftBounded(t *testing.T) {
	dt := Synthetic(500, 6, 99)
	draw := rng.New(5)
	s := randomState(dt, &draw)
	load := make([]float64, s.g)
	for step := 0; step < 2000; step++ {
		i := draw.Intn(500)
		to := int32(draw.Intn(5))
		if to >= s.gpuOf[i] {
			to++
		}
		s.applyMove(i, to)
		want := exactMakespan(dt, s.gpuOf, load)
		if math.Abs(s.span-want) > 1e-12*want {
			t.Fatalf("step %d: incremental span %v drifted beyond 1e-12 of %v", step, s.span, want)
		}
	}
}

// TestSearchMatchesBruteForce: on every brute-force-feasible shape the
// local search must land on the optimal makespan within 1e-12 relative.
func TestSearchMatchesBruteForce(t *testing.T) {
	shapes := []struct{ n, g int }{
		{6, 2}, {10, 2}, {12, 2}, {6, 3}, {8, 3}, {5, 4}, {6, 4}, {16, 2},
	}
	for _, sh := range shapes {
		for seed := int64(1); seed <= 4; seed++ {
			dt := Synthetic(sh.n, sh.g, seed)
			opt, err := BruteForce(dt)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Schedule(dt, SearchOptions{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			if res.Makespan > opt.Makespan*(1+1e-12) {
				t.Fatalf("n=%d g=%d seed=%d: search %v, brute force %v",
					sh.n, sh.g, seed, res.Makespan, opt.Makespan)
			}
			if res.Makespan < opt.Makespan*(1-1e-12) {
				t.Fatalf("n=%d g=%d seed=%d: search %v beat the exact optimum %v — bug in one of them",
					sh.n, sh.g, seed, res.Makespan, opt.Makespan)
			}
			if res.LowerBound > opt.Makespan*(1+1e-12) {
				t.Fatalf("n=%d g=%d seed=%d: lower bound %v exceeds the optimum %v",
					sh.n, sh.g, seed, res.LowerBound, opt.Makespan)
			}
		}
	}
}

// TestScheduleDeterministic: same table and options, same result — bit for
// bit — regardless of how the restart goroutines interleave.
func TestScheduleDeterministic(t *testing.T) {
	dt := Synthetic(3000, 7, 11)
	first, err := Schedule(dt, SearchOptions{Seed: 3, Moves: 20000})
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 3; run++ {
		res, err := Schedule(dt, SearchOptions{Seed: 3, Moves: 20000})
		if err != nil {
			t.Fatal(err)
		}
		if res.Makespan != first.Makespan || res.BestRestart != first.BestRestart {
			t.Fatalf("run %d: makespan %v (restart %d) != first %v (restart %d)",
				run, res.Makespan, res.BestRestart, first.Makespan, first.BestRestart)
		}
		for i := range res.Dense.GPUOf {
			if res.Dense.GPUOf[i] != first.Dense.GPUOf[i] {
				t.Fatalf("run %d: task %d on GPU %d, first run had %d",
					run, i, res.Dense.GPUOf[i], first.Dense.GPUOf[i])
			}
		}
	}
}

// TestScheduleGapAndBound checks the result invariants on mid-size
// instances: the lower bound never exceeds the makespan, the gap is
// consistent, and the result is a valid assignment.
func TestScheduleGapAndBound(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		dt := Synthetic(5000, 8, seed)
		res, err := Schedule(dt, SearchOptions{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if res.LowerBound <= 0 || res.LowerBound > res.Makespan {
			t.Fatalf("seed %d: lower bound %v vs makespan %v", seed, res.LowerBound, res.Makespan)
		}
		wantGap := (res.Makespan - res.LowerBound) / res.LowerBound
		if res.Gap != wantGap {
			t.Fatalf("seed %d: gap %v, want %v", seed, res.Gap, wantGap)
		}
		if res.Gap > 0.10 {
			t.Fatalf("seed %d: gap %.2f%% above the 10%% budget", seed, 100*res.Gap)
		}
		load := make([]float64, dt.NumGPUs())
		if got := exactMakespan(dt, res.Dense.GPUOf, load); got != res.Makespan {
			t.Fatalf("seed %d: reported makespan %v != recomputed %v", seed, res.Makespan, got)
		}
	}
}

// TestScheduleMillionTasks is the acceptance-scale run: a seeded
// 1,000,000-task × 8-GPU instance must schedule within the CI budget with
// a certified gap at or below 10%.
func TestScheduleMillionTasks(t *testing.T) {
	if testing.Short() {
		t.Skip("million-task instance skipped in -short mode")
	}
	const nTasks, nGPUs = 1_000_000, 8
	start := time.Now()
	dt := Synthetic(nTasks, nGPUs, 42)
	res, err := Schedule(dt, SearchOptions{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	rate := float64(nTasks) / elapsed.Seconds()
	t.Logf("10⁶×%d: makespan %.3fs, LB %.3fs, gap %.3f%%, %.0f tasks/sec, %v total",
		nGPUs, res.Makespan, res.LowerBound, 100*res.Gap, rate, elapsed)
	if res.Gap > 0.10 {
		t.Fatalf("gap %.2f%% above the 10%% acceptance bound", 100*res.Gap)
	}
	if !raceEnabled && elapsed > 30*time.Second {
		// The budget is for uninstrumented builds; -race slows the move
		// loop ~7x and only the correctness assertions apply there.
		t.Fatalf("schedule took %v, acceptance budget is 30s", elapsed)
	}
}

// TestLowerBoundDominance: LowerBound must be at least both closed-form
// bounds it claims to dominate, and feasible schedules must never beat it.
func TestLowerBoundDominance(t *testing.T) {
	for _, seed := range []int64{1, 9, 17} {
		dt := Synthetic(400, 5, seed)
		lb, err := LowerBound(dt)
		if err != nil {
			t.Fatal(err)
		}
		mins := taskMins(dt)
		if lb < mins.maxMin {
			t.Fatalf("LB %v below best-time bound %v", lb, mins.maxMin)
		}
		if frac := mins.sumMin / float64(dt.NumGPUs()); lb < frac {
			t.Fatalf("LB %v below fractional bound %v", lb, frac)
		}
		res, err := Schedule(dt, SearchOptions{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if res.Makespan < lb*(1-1e-12) {
			t.Fatalf("schedule %v beat the \"lower\" bound %v", res.Makespan, lb)
		}
	}
}

// TestListScheduleLookahead: the construction is valid for any window, and
// ListSchedule is its one-task window, plain LPT.
func TestListScheduleLookahead(t *testing.T) {
	dt := Synthetic(300, 4, 5)
	load := make([]float64, dt.NumGPUs())
	lpt, err := ListSchedule(dt)
	if err != nil {
		t.Fatal(err)
	}
	if one := listSchedule(dt, taskMins(dt), 1); !slices.Equal(one.GPUOf, lpt.GPUOf) {
		t.Fatal("ListSchedule differs from the one-task window")
	}
	for _, w := range []int{1, 2, 8, 64, 1000} {
		a := listSchedule(dt, taskMins(dt), w)
		if len(a.GPUOf) != 300 {
			t.Fatalf("window %d: %d tasks assigned", w, len(a.GPUOf))
		}
		if got := exactMakespan(dt, a.GPUOf, load); got != a.Makespan {
			t.Fatalf("window %d: makespan %v != recomputed %v", w, a.Makespan, got)
		}
	}
}

// TestPolicySubstrate exercises the pluggable Policy interface end to end.
func TestPolicySubstrate(t *testing.T) {
	dt := Synthetic(200, 3, 8)
	policies := []Policy{ListPolicy{}, InOrderPolicy{}, SearchPolicy{}}
	names := map[string]bool{}
	for _, p := range policies {
		if names[p.Name()] {
			t.Fatalf("duplicate policy name %q", p.Name())
		}
		names[p.Name()] = true
		a, err := p.Schedule(dt)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if len(a.GPUOf) != 200 {
			t.Fatalf("%s assigned %d tasks", p.Name(), len(a.GPUOf))
		}
	}
}

// TestDenseValidation covers the table constructors' error paths.
func TestDenseValidation(t *testing.T) {
	if _, err := NewDenseTimes(nil, 3); err == nil {
		t.Fatal("no GPUs should error")
	}
	if _, err := NewDenseTimes([]string{"a"}, -1); err == nil {
		t.Fatal("a negative task count should error")
	}
	if _, err := NewDenseTimes([]string{"a"}, 0); err != nil {
		t.Fatalf("an empty queue is a valid table: %v", err)
	}
	if _, err := NewDenseTimes([]string{"a", "a"}, 2); err == nil {
		t.Fatal("duplicate GPU names should error")
	}
	if _, err := NewDenseTimes([]string{""}, 2); err == nil {
		t.Fatal("empty GPU name should error")
	}
	// Ids follow the given order, not name order.
	named, err := NewDenseTimes([]string{"b", "a", "c"}, 3)
	if err != nil {
		t.Fatal(err)
	}
	named.Row(1)[2] = 6
	if got := named.GPUs(); !slices.Equal(got, []string{"b", "a", "c"}) || named.At(1, 2) != 6 {
		t.Fatalf("GPUs %v, At(1, 2) = %v; want ids in the given order", got, named.At(1, 2))
	}
	dt, err := NewDenseTimes([]string{"a"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := dt.Validate(); err == nil {
		t.Fatal("zero-filled table should fail Validate")
	}
	if _, err := Schedule(dt, SearchOptions{}); err == nil {
		t.Fatal("Schedule must reject an invalid table")
	}
	if _, err := Schedule(nil, SearchOptions{}); err == nil {
		t.Fatal("Schedule must reject a nil table")
	}
	if _, err := ListSchedule(nil); err == nil {
		t.Fatal("ListSchedule must reject a nil table")
	}
	if _, err := LowerBound(nil); err == nil {
		t.Fatal("LowerBound must reject a nil table")
	}
}

// TestSyntheticDeterministic: the benchmark generator is a pure function
// of its arguments.
func TestSyntheticDeterministic(t *testing.T) {
	a := Synthetic(100, 4, 7)
	b := Synthetic(100, 4, 7)
	for g := 0; g < 4; g++ {
		ra, rb := a.Row(g), b.Row(g)
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatalf("Synthetic not deterministic at (%d, %d)", g, i)
			}
		}
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("Synthetic table invalid: %v", err)
	}
	c := Synthetic(100, 4, 8)
	same := true
	for g := 0; g < 4 && same; g++ {
		rc := c.Row(g)
		for i, v := range a.Row(g) {
			if v != rc[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical tables")
	}
}

// TestScheduleSingleGPU covers the degenerate one-GPU fast path.
func TestScheduleSingleGPU(t *testing.T) {
	dt := Synthetic(50, 1, 3)
	res, err := Schedule(dt, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range dt.Row(0) {
		sum += v
	}
	if res.Makespan != sum {
		t.Fatalf("single GPU makespan %v != total work %v", res.Makespan, sum)
	}
	if res.Gap != 0 {
		t.Fatalf("single GPU gap = %v, want 0", res.Gap)
	}
}
