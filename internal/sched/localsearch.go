package sched

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/rng"
)

// Cluster-scale makespan search. The paper's case study 3 brute-forces 6
// tasks × 3 GPUs because prediction is fast; once the time table itself is
// cheap (DenseTimes filled by one PredictSweep pass per (network, GPU)),
// scheduling quality is bounded by search throughput. This file implements
// the search stack for 10⁶-task instances:
//
//   - listSchedule: LPT list scheduling with a bounded regret-lookahead
//     window as the construction heuristic (ListSchedule is its one-task
//     window, plain LPT);
//   - searchState: task-move and task-swap neighborhoods evaluated as O(1)
//     incremental load deltas against an indexed max-heap of GPU loads and
//     the ids of its three largest, so a proposal reads the makespan of the
//     GPUs it leaves alone without a scan — never a full finishDense
//     rescan. A commit changes one load and re-sifts it before changing
//     the other, so the heap stays a heap;
//   - anneal/descend: simulated annealing with a seeded deterministic RNG,
//     whose acceptance test rejects most worse proposals by a Taylor bound
//     before calling math.Exp, followed by strict-improvement descent;
//   - Schedule: goroutine-per-restart multi-start with a deterministic
//     best-of reduction (ties break toward the lowest restart index).
//
// Determinism contract: Schedule's result depends only on (dt, opt) —
// never on GOMAXPROCS, wall-clock time, or goroutine interleaving.

// SearchOptions tunes Schedule. The zero value selects scaled defaults.
type SearchOptions struct {
	// Moves is the number of annealing proposals per restart. Default
	// max(50_000, 2·nTasks).
	Moves int
	// Seed is the base RNG seed; restart r derives an independent stream
	// from (Seed, r). The default 0 is a valid seed.
	Seed int64
}

// searchLookahead is Schedule's construction regret window: how many
// upcoming LPT-ordered tasks compete for the next placement.
const searchLookahead = 8

// smallInstanceTasks bounds the O(n²) swap-sweep descent: below it, descent
// iterates move and pairwise-swap sweeps to a full local optimum (the
// regime where matching brute force exactly matters); above it, bounded
// move sweeps keep the pass linear.
const smallInstanceTasks = 512

// SearchResult is one Schedule run: the best assignment found, the
// certified lower bound with the measured optimality gap, and the search
// effort statistics mirrored into the internal/obs counters.
type SearchResult struct {
	// Dense is the best assignment across restarts, with exact
	// (from-scratch recomputed) loads and makespan.
	Dense *DenseAssignment
	// Makespan is Dense.Makespan, seconds.
	Makespan float64
	// LowerBound is a certified lower bound on the optimal makespan (see
	// LowerBound), and Gap = (Makespan-LowerBound)/LowerBound the measured
	// optimality gap.
	LowerBound float64
	Gap        float64
	// Search effort, summed across restarts.
	MovesTried, MovesAccepted int64
	SwapsTried, SwapsAccepted int64
	// Restarts is the restart count; BestRestart the index whose result
	// won the reduction.
	Restarts    int
	BestRestart int
}

// Schedule runs the full cluster-scale pipeline on a validated dense table:
// lower bound, LPT-lookahead construction, multi-start annealing + descent,
// deterministic reduction. It is the scalable counterpart of BruteForce and
// what Auto routes oversized instances to.
func Schedule(dt *DenseTimes, opt SearchOptions) (*SearchResult, error) {
	if dt == nil {
		return nil, errNilTable
	}
	if err := dt.Validate(); err != nil {
		return nil, err
	}
	n, g := dt.n, len(dt.gpus)
	// Independent annealing restarts, each on its own goroutine with its
	// own RNG stream. Tiny instances are cheap and the most likely to sit
	// one basin away from the exact optimum, so they get double the
	// diversity.
	restarts := 4
	if n <= 64 {
		restarts = 8
	}
	moves := opt.Moves
	if moves <= 0 {
		moves = max(2*n, 50_000)
	}

	timer := startSearchTimer()
	defer timer.Stop()
	metricSearches.Inc()
	metricSearchTasks.Add(int64(n))

	mins := taskMins(dt)
	lb := lowerBoundFromMins(dt, mins)
	initial := listSchedule(dt, mins, searchLookahead)

	res := &SearchResult{
		LowerBound: lb,
		Restarts:   restarts,
	}
	if g == 1 || n == 0 {
		// One GPU or an empty queue: every assignment is the same schedule.
		res.Dense, res.Makespan = initial, initial.Makespan
		res.Gap = gapOf(initial.Makespan, lb)
		recordSearchMetrics(res)
		return res, nil
	}

	t0, cool := annealSchedule(mins, n, moves)
	outs := make([]restartOut, restarts)
	var wg sync.WaitGroup
	for r := 0; r < restarts; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			outs[r] = runRestart(dt, initial.GPUOf, opt.Seed, moves, r, t0, cool)
		}(r)
	}
	wg.Wait()

	// Deterministic best-of reduction: strict < keeps the lowest restart
	// index on ties, so the winner is independent of goroutine timing.
	best := 0
	for r := 1; r < restarts; r++ {
		if outs[r].makespan < outs[best].makespan {
			best = r
		}
	}
	final := &DenseAssignment{GPUOf: outs[best].gpuOf}
	finishDense(final, dt)
	res.Dense, res.Makespan, res.BestRestart = final, final.Makespan, best
	res.Gap = gapOf(final.Makespan, lb)
	for _, o := range outs {
		res.MovesTried += o.movesTried
		res.MovesAccepted += o.movesAccepted
		res.SwapsTried += o.swapsTried
		res.SwapsAccepted += o.swapsAccepted
	}
	recordSearchMetrics(res)
	return res, nil
}

// gapOf is the relative optimality gap, guarding a zero bound.
func gapOf(makespan, lb float64) float64 {
	if lb <= 0 {
		return 0
	}
	return (makespan - lb) / lb
}

// annealSchedule derives the temperature ladder from the instance: the
// typical move delta is one task's time, so the initial temperature tracks
// the mean best-GPU time and decays geometrically to 0.1% of the start over
// the move budget. Small instances heat to the LARGEST task instead — on a
// short queue reaching the optimum usually requires relocating the biggest
// task, and a mean-scaled temperature would freeze it in place.
func annealSchedule(mins *taskMinStats, n, moves int) (t0, cool float64) {
	t0 = 0.5 * mins.sumMin / float64(n)
	if n <= smallInstanceTasks {
		t0 = 0.5 * mins.maxMin
	}
	if t0 <= 0 {
		return 0, 1
	}
	cool = math.Pow(1e-3, 1/float64(moves))
	return t0, cool
}

// restartOut is one restart's contribution to the reduction.
type restartOut struct {
	gpuOf                     []int32
	makespan                  float64
	movesTried, movesAccepted int64
	swapsTried, swapsAccepted int64
}

// runRestart anneals and descends one restart and returns its best
// assignment with an exact makespan. Even restarts start from the shared
// LPT construction; on small instances odd restarts start from a seeded
// random assignment instead, so the multi-start explores genuinely
// different basins rather than four RNG streams in the same one. (At
// cluster scale a random start is hopeless and every restart keeps the
// construction.)
func runRestart(dt *DenseTimes, initial []int32, seed int64, moves, r int, t0, cool float64) restartOut {
	if r%2 == 1 && dt.n <= smallInstanceTasks {
		start := rng.New(restartSeed(seed, r) ^ 0x5bf03635aca2c2cb)
		alt := make([]int32, dt.n)
		for i := range alt {
			alt[i] = int32(start.Intn(len(dt.gpus)))
		}
		initial = alt
	}
	st := newSearchState(dt, initial, restartSeed(seed, r))
	st.anneal(moves, t0, cool)
	st.descend()

	// The end state is a local optimum but the annealing phase may have
	// seen a better incumbent; recompute both exactly and keep the winner
	// (ties prefer the incumbent, which was reached first).
	load := make([]float64, st.g)
	best := st.incumbent()
	endSpan := exactMakespan(dt, st.gpuOf, load)
	bestSpan := exactMakespan(dt, best, load)
	out := restartOut{
		movesTried: st.movesTried, movesAccepted: st.movesAccepted,
		swapsTried: st.swapsTried, swapsAccepted: st.swapsAccepted,
	}
	if endSpan < bestSpan {
		out.gpuOf, out.makespan = st.gpuOf, endSpan
	} else {
		out.gpuOf, out.makespan = best, bestSpan
	}
	return out
}

// restartSeed derives restart r's RNG seed from the base seed; the mixing
// constant keeps nearby (seed, r) pairs uncorrelated under splitmix.
func restartSeed(seed int64, r int) uint64 {
	return uint64(seed) ^ (uint64(r)+1)*0xa0761d6478bd642f
}

// exactMakespan recomputes an assignment's makespan from scratch into the
// caller's load buffer — the drift-free number every reported result uses.
func exactMakespan(dt *DenseTimes, gpuOf []int32, load []float64) float64 {
	for g := range load {
		load[g] = 0
	}
	n := dt.n
	for i, g := range gpuOf {
		load[g] += dt.t[int(g)*n+i]
	}
	span := 0.0
	for _, l := range load {
		if l > span {
			span = l
		}
	}
	return span
}

// ---------------------------------------------------------------- state

// searchState is one restart's mutable search position. Loads, the indexed
// max-heap over them, and the per-GPU task lists are all updated
// incrementally; nothing in the hot loop rescans the assignment.
type searchState struct {
	t    []float64 // dt.t, gpu-major
	n, g int

	gpuOf []int32   // task → GPU id
	load  []float64 // GPU → assigned seconds
	span  float64   // load[heapGPU[0]], the current makespan

	// Indexed binary max-heap over load: heapGPU[pos] is the GPU at heap
	// position pos, heapPos[g] its position. The root is the makespan GPU.
	heapGPU []int32
	heapPos []int32
	// top holds the GPUs with the three largest loads, largest first (-1
	// past g), refreshed from heap positions 0..6 whenever a load changes.
	top [3]int32

	// Per-GPU task lists with O(1) membership moves: byGPU[g] lists the
	// tasks on g, slot[i] is task i's index within its list.
	byGPU [][]int32
	slot  []int32

	rng rng.Stream

	// Incumbent: the best makespan seen and the assignment that achieved
	// it. While atBest the incumbent is the current assignment itself, so a
	// run of improving commits copies nothing; bestGPUOf holds it once a
	// commit has left it (see noteCommit).
	bestSpan  float64
	bestGPUOf []int32
	atBest    bool

	movesTried, movesAccepted int64
	swapsTried, swapsAccepted int64
}

// newSearchState builds a restart state from an initial assignment.
func newSearchState(dt *DenseTimes, initial []int32, seed uint64) *searchState {
	n, g := dt.n, len(dt.gpus)
	s := &searchState{
		t: dt.t, n: n, g: g,
		gpuOf:     append([]int32(nil), initial...),
		load:      make([]float64, g),
		heapGPU:   make([]int32, g),
		heapPos:   make([]int32, g),
		byGPU:     make([][]int32, g),
		slot:      make([]int32, n),
		rng:       rng.New(seed),
		bestGPUOf: make([]int32, n),
	}
	counts := make([]int32, g)
	for _, gp := range s.gpuOf {
		counts[gp]++
	}
	for gp := range s.byGPU {
		// Slack above the initial population absorbs churn without
		// reallocating; steady-state moves then never grow the lists.
		s.byGPU[gp] = make([]int32, 0, int(counts[gp])+n/(4*g)+16)
	}
	for i, gp := range s.gpuOf {
		s.load[gp] += s.t[int(gp)*n+i]
		s.byGPU[gp] = append(s.byGPU[gp], int32(i))
		s.slot[i] = int32(len(s.byGPU[gp]) - 1)
	}
	for gp := range s.heapGPU {
		s.heapGPU[gp] = int32(gp)
		s.heapPos[gp] = int32(gp)
	}
	for pos := g/2 - 1; pos >= 0; pos-- {
		s.siftDown(pos)
	}
	s.refreshTop()
	s.span = s.load[s.heapGPU[0]]
	s.bestSpan, s.atBest = s.span, true
	return s
}

// noteCommit updates the incumbent after a committed move or swap that took
// task i off GPU gi and task j off GPU gj (j = i for a move). A strict
// improvement makes the current assignment the incumbent and copies
// nothing. The first other commit after it copies the incumbent out: the
// current assignment with the two tasks put back, which is exact whatever
// the commit did to the loads.
func (s *searchState) noteCommit(i int, gi int32, j int, gj int32) {
	if s.span < s.bestSpan {
		s.bestSpan, s.atBest = s.span, true
		return
	}
	if s.atBest {
		copy(s.bestGPUOf, s.gpuOf)
		s.bestGPUOf[i], s.bestGPUOf[j] = gi, gj
		s.atBest = false
	}
}

// incumbent returns the best assignment seen, which the state owns.
func (s *searchState) incumbent() []int32 {
	if s.atBest {
		return s.gpuOf
	}
	return s.bestGPUOf
}

// ---------------------------------------------------------------- heap

// heapSwap exchanges two heap positions, keeping the position index
// coherent.
//
//dnnperf:allocfree
func (s *searchState) heapSwap(a, b int) {
	ga, gb := s.heapGPU[a], s.heapGPU[b]
	s.heapGPU[a], s.heapGPU[b] = gb, ga
	s.heapPos[ga], s.heapPos[gb] = int32(b), int32(a)
}

// siftUp restores the max-heap property upward from pos.
//
//dnnperf:allocfree
func (s *searchState) siftUp(pos int) {
	for pos > 0 {
		parent := (pos - 1) / 2
		if s.load[s.heapGPU[pos]] <= s.load[s.heapGPU[parent]] {
			return
		}
		s.heapSwap(pos, parent)
		pos = parent
	}
}

// siftDown restores the max-heap property downward from pos.
//
//dnnperf:allocfree
func (s *searchState) siftDown(pos int) {
	for {
		kid := 2*pos + 1
		if kid >= s.g {
			return
		}
		if r := kid + 1; r < s.g && s.load[s.heapGPU[r]] > s.load[s.heapGPU[kid]] {
			kid = r
		}
		if s.load[s.heapGPU[kid]] <= s.load[s.heapGPU[pos]] {
			return
		}
		s.heapSwap(pos, kid)
		pos = kid
	}
}

// heapFix re-sifts GPU g after its load changed.
//
//dnnperf:allocfree
func (s *searchState) heapFix(g int32) {
	s.siftUp(int(s.heapPos[g]))
	s.siftDown(int(s.heapPos[g]))
}

// refreshTop recomputes top from heap positions 0..6. In a binary max-heap
// every root-to-node path reaches depth 3 through those positions, so any
// deeper GPU has three ancestors there with loads at least its own: the
// three largest loads always sit in the top three levels.
//
//dnnperf:allocfree
func (s *searchState) refreshTop() {
	t0, t1, t2 := int32(-1), int32(-1), int32(-1)
	l0, l1, l2 := -math.MaxFloat64, -math.MaxFloat64, -math.MaxFloat64
	for pos := 0; pos < s.g && pos < 7; pos++ {
		gp := s.heapGPU[pos]
		switch l := s.load[gp]; {
		case l > l0:
			t0, t1, t2 = gp, t0, t1
			l0, l1, l2 = l, l0, l1
		case l > l1:
			t1, t2 = gp, t1
			l1, l2 = l, l1
		case l > l2:
			t2, l2 = gp, l
		}
	}
	s.top = [3]int32{t0, t1, t2}
}

// maxExcluding returns the maximum load over GPUs other than a and b,
// floored at 0, in O(1): with at most two GPUs excluded, the answer is the
// load of the first top GPU that is neither.
//
//dnnperf:allocfree
func (s *searchState) maxExcluding(a, b int32) float64 {
	gp := s.top[0]
	if gp == a || gp == b {
		if gp = s.top[1]; gp == a || gp == b {
			gp = s.top[2]
		}
	}
	if gp < 0 {
		return 0
	}
	return max(s.load[gp], 0)
}

// ---------------------------------------------------------------- moves

// evalMove returns the exact makespan after moving task i to GPU `to`, as
// an O(1) incremental load delta: two load updates plus the top-three lookup.
//
//dnnperf:allocfree
func (s *searchState) evalMove(i int, to int32) float64 {
	from := s.gpuOf[i]
	n := s.n
	newFrom := s.load[from] - s.t[int(from)*n+i]
	newTo := s.load[to] + s.t[int(to)*n+i]
	span := s.maxExcluding(from, to)
	if newFrom > span {
		span = newFrom
	}
	if newTo > span {
		span = newTo
	}
	return span
}

// evalSwap returns the exact makespan after exchanging tasks i and j
// (which must sit on different GPUs), again as an O(1) incremental delta.
//
//dnnperf:allocfree
func (s *searchState) evalSwap(i, j int) float64 {
	a, b := s.gpuOf[i], s.gpuOf[j]
	n := s.n
	newA := s.load[a] - s.t[int(a)*n+i] + s.t[int(a)*n+j]
	newB := s.load[b] - s.t[int(b)*n+j] + s.t[int(b)*n+i]
	span := s.maxExcluding(a, b)
	if newA > span {
		span = newA
	}
	if newB > span {
		span = newB
	}
	return span
}

// applyMove commits a task move, updating loads, lists, heap and span with
// the same increments evalMove predicted. Each load is re-sifted before the
// other changes: a sift compares against its neighbours' current loads, and
// siftDown never looks back up.
func (s *searchState) applyMove(i int, to int32) {
	from := s.gpuOf[i]
	lst := s.byGPU[from]
	last := len(lst) - 1
	tail := lst[last]
	si := s.slot[i]
	lst[si] = tail
	s.slot[tail] = si
	s.byGPU[from] = lst[:last]
	s.byGPU[to] = append(s.byGPU[to], int32(i))
	s.slot[i] = int32(len(s.byGPU[to]) - 1)
	s.gpuOf[i] = to
	n := s.n
	s.load[from] -= s.t[int(from)*n+i]
	s.heapFix(from)
	s.load[to] += s.t[int(to)*n+i]
	s.heapFix(to)
	s.refreshTop()
	s.span = s.load[s.heapGPU[0]]
}

// applySwap commits a task exchange; the per-GPU lists swap entries in
// place, so unlike applyMove it never appends. Two tasks with equal times
// on both GPUs leave every load, and so the heap, as it was.
//
//dnnperf:allocfree
func (s *searchState) applySwap(i, j int) {
	a, b := s.gpuOf[i], s.gpuOf[j]
	s.byGPU[a][s.slot[i]] = int32(j)
	s.byGPU[b][s.slot[j]] = int32(i)
	s.slot[i], s.slot[j] = s.slot[j], s.slot[i]
	s.gpuOf[i], s.gpuOf[j] = b, a
	n := s.n
	da := s.t[int(a)*n+j] - s.t[int(a)*n+i]
	db := s.t[int(b)*n+i] - s.t[int(b)*n+j]
	if da == 0 && db == 0 {
		return
	}
	s.load[a] += da
	s.heapFix(a)
	s.load[b] += db
	s.heapFix(b)
	s.refreshTop()
	s.span = s.load[s.heapGPU[0]]
}

// ---------------------------------------------------------------- search

// anneal runs the simulated-annealing phase: proposals are biased toward
// the bottleneck (3 of 4 source picks take the max-load GPU off the heap
// root), kinds alternate between move and swap by coin flip, and worse
// states are accepted with probability exp(-delta/T) under a geometric
// cooling ladder.
func (s *searchState) anneal(moves int, t0, cool float64) {
	temp := t0
	for k := 0; k < moves; k++ {
		temp *= cool
		var src int32
		if s.rng.Uint64()&3 != 0 {
			src = s.heapGPU[0]
		} else {
			src = int32(s.rng.Intn(s.g))
		}
		lst := s.byGPU[src]
		if len(lst) == 0 {
			continue
		}
		i := int(lst[s.rng.Intn(len(lst))])
		to := int32(s.rng.Intn(s.g - 1))
		if to >= src {
			to++
		}
		if s.rng.Uint64()&1 == 0 {
			s.movesTried++
			if s.accept(s.evalMove(i, to), temp) {
				s.applyMove(i, to)
				s.movesAccepted++
				s.noteCommit(i, src, i, src)
			}
		} else {
			dst := s.byGPU[to]
			if len(dst) == 0 {
				continue
			}
			j := int(dst[s.rng.Intn(len(dst))])
			s.swapsTried++
			if s.accept(s.evalSwap(i, j), temp) {
				s.applySwap(i, j)
				s.swapsAccepted++
				s.noteCommit(i, src, j, to)
			}
		}
	}
}

// accept implements the annealing acceptance rule.
func (s *searchState) accept(newSpan, temp float64) bool {
	delta := newSpan - s.span
	if delta <= 0 {
		return true
	}
	if temp <= 0 {
		return false
	}
	x := delta / temp
	if x > 30 { // exp(-30) ≈ 1e-13: below any rng.Float64 resolution worth paying math.Exp for
		return false
	}
	return acceptDraw(s.rng.Float64(), x)
}

// acceptDraw reports whether u < exp(-x) for x ≥ 0. Most worse proposals
// are rejected by the cubic Taylor bound alone: e^x ≥ 1 + x + x²/2 + x³/6,
// so u·(that) ≥ 1 + 1e-9 means u ≥ e^-x with a margin far wider than the
// rounding of either side, and math.Exp is called only when the bound
// cannot decide.
func acceptDraw(u, x float64) bool {
	if u*(1+x*(1+x*(0.5+x/6))) >= 1+1e-9 {
		return false
	}
	return u < math.Exp(-x)
}

// descend runs strict-improvement sweeps until a local optimum or the pass
// bound: every task tries its best move; small instances additionally try
// every cross-GPU pair swap, which is what lets multi-start search land on
// the brute-force optimum for case-study-sized queues. Small instances
// sweep until convergence (at most 256 passes), larger ones twice.
func (s *searchState) descend() {
	swapSweep := s.n <= smallInstanceTasks
	maxPasses := 2
	if swapSweep {
		maxPasses = 256
	}
	for pass := 0; pass < maxPasses; pass++ {
		improved := false
		for i := 0; i < s.n; i++ {
			from := s.gpuOf[i]
			bestTo := int32(-1)
			bestSpan := s.span
			for g := int32(0); g < int32(s.g); g++ {
				if g == from {
					continue
				}
				s.movesTried++
				if sp := s.evalMove(i, g); sp < bestSpan {
					bestSpan, bestTo = sp, g
				}
			}
			if bestTo >= 0 {
				s.applyMove(i, bestTo)
				s.movesAccepted++
				improved = true
				s.noteCommit(i, from, i, from)
			}
		}
		if swapSweep {
			for i := 0; i < s.n; i++ {
				for j := i + 1; j < s.n; j++ {
					gi, gj := s.gpuOf[i], s.gpuOf[j]
					if gi == gj {
						continue
					}
					s.swapsTried++
					if sp := s.evalSwap(i, j); sp < s.span {
						s.applySwap(i, j)
						s.swapsAccepted++
						improved = true
						s.noteCommit(i, gi, j, gj)
					}
				}
			}
		}
		if !improved {
			return
		}
	}
}

// ---------------------------------------------------------------- construction

// ListSchedule is plain LPT list scheduling: tasks in order of best-GPU
// time descending, each placed on its earliest-finishing GPU. On identical
// machines it is within 4/3 − 1/(3g) of optimal (Graham 1969) against
// 2 − 1/g for the in-order rule (InOrderPolicy).
func ListSchedule(dt *DenseTimes) (*DenseAssignment, error) {
	if dt == nil {
		return nil, errNilTable
	}
	if err := dt.Validate(); err != nil {
		return nil, err
	}
	return listSchedule(dt, taskMins(dt), 1), nil
}

// listSchedule is LPT with a regret-lookahead window of lookahead ≥ 1
// tasks: at each step the window task with the largest regret — the
// completion-time penalty of not receiving its best GPU now — is placed on
// its earliest-finishing GPU. A one-task window is plain LPT; Schedule
// constructs with searchLookahead.
func listSchedule(dt *DenseTimes, mins *taskMinStats, lookahead int) *DenseAssignment {
	n, g := dt.n, len(dt.gpus)
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	sortTasksByKeyDesc(order, mins.min)

	if lookahead > n {
		lookahead = n
	}
	a := &DenseAssignment{GPUOf: make([]int32, n)}
	load := make([]float64, g)
	// win holds the next `lookahead` unplaced tasks in LPT order; removal
	// shifts in place so ties keep resolving toward the earlier task.
	win := make([]int32, 0, lookahead)
	next := 0
	for placed := 0; placed < n; placed++ {
		for len(win) < lookahead && next < n {
			win = append(win, order[next])
			next++
		}
		bestW, bestGPU, bestRegret := 0, 0, -1.0
		for w, task := range win {
			i := int(task)
			f1, f2, g1 := math.Inf(1), math.Inf(1), 0
			for gp := 0; gp < g; gp++ {
				f := load[gp] + dt.t[gp*n+i]
				if f < f1 {
					f2 = f1
					f1, g1 = f, gp
				} else if f < f2 {
					f2 = f
				}
			}
			regret := f2 - f1
			if g == 1 {
				regret = 0
			}
			if regret > bestRegret {
				bestW, bestGPU, bestRegret = w, g1, regret
			}
		}
		task := win[bestW]
		a.GPUOf[task] = int32(bestGPU)
		load[bestGPU] += dt.t[bestGPU*n+int(task)]
		win = append(win[:bestW], win[bestW+1:]...)
	}
	finishDense(a, dt)
	return a
}

// ---------------------------------------------------------------- mins

// taskMinStats caches each task's best and second-best GPU time — shared
// by the LPT order, the lower bound, and the annealing temperature ladder.
type taskMinStats struct {
	min, sec []float64 // best and second-best time per task
	arg      []int32   // best GPU per task
	sumMin   float64   // Σ min, summed in task order
	maxMin   float64   // max over tasks of min
}

// taskMins computes the per-task best/second-best statistics in one
// gpu-major pass over the table.
func taskMins(dt *DenseTimes) *taskMinStats {
	n, g := dt.n, len(dt.gpus)
	m := &taskMinStats{
		min: make([]float64, n),
		sec: make([]float64, n),
		arg: make([]int32, n),
	}
	for i := range m.min {
		m.min[i] = math.Inf(1)
		m.sec[i] = math.Inf(1)
	}
	for gp := 0; gp < g; gp++ {
		row := dt.Row(gp)
		for i, v := range row {
			if v < m.min[i] {
				m.sec[i] = m.min[i]
				m.min[i], m.arg[i] = v, int32(gp)
			} else if v < m.sec[i] {
				m.sec[i] = v
			}
		}
	}
	for _, v := range m.min {
		m.sumMin += v
		if v > m.maxMin {
			m.maxMin = v
		}
	}
	return m
}

// errNilTable guards the exported entry points against a nil table.
var errNilTable = fmt.Errorf("sched: nil DenseTimes table")
