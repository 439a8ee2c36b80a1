// Package sched implements case study 3 (§6): using the performance models
// to make real-time scheduling decisions across heterogeneous GPUs — both
// per-network GPU selection (Figure 18) and whole-queue makespan-minimizing
// assignment (Figure 19), where the models' speed makes brute-force search
// practical.
//
// Beyond the paper's 6-task scale, the package is a cluster-scale makespan
// optimizer: DenseTimes holds the time table flat and gpu-major, Schedule
// runs LPT-lookahead construction plus multi-start annealed local search
// with O(1) incremental move evaluation, and LowerBound certifies the
// optimality gap. Auto routes between the two regimes by instance size.
package sched

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Task is one network inference job in the queue.
type Task struct {
	// Name identifies the network.
	Name string
	// Batch is the inference batch size.
	Batch int
}

// Times holds per-GPU execution time estimates (or measurements) for a task
// list: Times[gpuName][i] is task i's time on that GPU, in seconds.
type Times map[string][]float64

// Validate checks that every GPU has one time per task and all are positive.
func (tm Times) Validate(nTasks int) error {
	if len(tm) == 0 {
		return fmt.Errorf("sched: no GPUs")
	}
	for g, ts := range tm {
		if len(ts) != nTasks {
			return fmt.Errorf("sched: GPU %q has %d times for %d tasks", g, len(ts), nTasks)
		}
		for i, t := range ts {
			if t <= 0 || math.IsNaN(t) || math.IsInf(t, 0) {
				return fmt.Errorf("sched: GPU %q task %d has non-positive time %v", g, i, t)
			}
		}
	}
	return nil
}

// gpuNames returns the map keys sorted, for deterministic iteration.
func (tm Times) gpuNames() []string {
	names := make([]string, 0, len(tm))
	for g := range tm {
		names = append(names, g)
	}
	sort.Strings(names)
	return names
}

// ChooseGPU returns, for each task, the GPU with the smallest time — the
// per-network decision of Figure 18 ("which GPU runs the network faster").
func ChooseGPU(tm Times, nTasks int) ([]string, error) {
	if err := tm.Validate(nTasks); err != nil {
		return nil, err
	}
	gpus := tm.gpuNames()
	out := make([]string, nTasks)
	for i := 0; i < nTasks; i++ {
		best := gpus[0]
		for _, g := range gpus[1:] {
			if tm[g][i] < tm[best][i] {
				best = g
			}
		}
		out[i] = best
	}
	return out, nil
}

// Assignment maps each task index to a GPU and reports the resulting
// per-GPU loads and makespan.
type Assignment struct {
	// GPUOf[i] is the GPU task i runs on.
	GPUOf []string
	// Load is each GPU's total assigned time, seconds.
	Load map[string]float64
	// Makespan is the maximum load — the overall completion time.
	Makespan float64
}

// finishAssignment fills a's per-GPU loads and makespan from GPUOf and the
// time table, every GPU present in Load, tasks summed in index order.
func finishAssignment(a *Assignment, tm Times) {
	a.Load = make(map[string]float64, len(tm))
	for g := range tm {
		a.Load[g] = 0
	}
	for i, g := range a.GPUOf {
		a.Load[g] += tm[g][i]
	}
	a.Makespan = 0
	for _, l := range a.Load {
		if l > a.Makespan {
			a.Makespan = l
		}
	}
}

// maxBruteForceTasks bounds the exhaustive search (g^n assignments).
const maxBruteForceTasks = 16

// ErrSearchSpace marks a scheduling request whose exhaustive search space is
// too large to enumerate (g^n assignments blow up exponentially). Callers
// detect it with errors.Is and fall back to Greedy — or call Auto, which
// does exactly that.
var ErrSearchSpace = errors.New("sched: search space too large for brute force")

// BruteForce enumerates every assignment of tasks to GPUs and returns one
// with minimal makespan ("thanks to the extremely fast execution, we can
// easily run a brute force design space search", §6). It requires
// len(tasks) ≤ 16 and at most 4 GPUs; beyond either limit it returns an
// error wrapping ErrSearchSpace. Use Greedy (or Auto) beyond the limits.
func BruteForce(tm Times, nTasks int) (Assignment, error) {
	if err := tm.Validate(nTasks); err != nil {
		return Assignment{}, err
	}
	gpus := tm.gpuNames()
	if nTasks > maxBruteForceTasks {
		return Assignment{}, fmt.Errorf("%w: limited to %d tasks, got %d", ErrSearchSpace, maxBruteForceTasks, nTasks)
	}
	if len(gpus) > 4 {
		return Assignment{}, fmt.Errorf("%w: limited to 4 GPUs, got %d", ErrSearchSpace, len(gpus))
	}

	g := len(gpus)
	total := 1
	for i := 0; i < nTasks; i++ {
		total *= g
	}
	best := Assignment{Makespan: math.Inf(1)}
	choice := make([]int, nTasks)
	loads := make([]float64, g)
	for code := 0; code < total; code++ {
		c := code
		for i := range loads {
			loads[i] = 0
		}
		for i := 0; i < nTasks; i++ {
			choice[i] = c % g
			c /= g
			loads[choice[i]] += tm[gpus[choice[i]]][i]
		}
		span := 0.0
		for _, l := range loads {
			if l > span {
				span = l
			}
		}
		if span < best.Makespan {
			best.Makespan = span
			best.GPUOf = make([]string, nTasks)
			for i, ci := range choice {
				best.GPUOf[i] = gpus[ci]
			}
		}
	}
	finishAssignment(&best, tm)
	return best, nil
}

// Auto schedules with BruteForce when the search space permits; when
// BruteForce reports ErrSearchSpace it routes to the cluster-scale path —
// dense conversion, LPT-lookahead construction, and multi-start local
// search via Schedule with default options. The returned flag is true when
// the assignment is the exact optimum (brute force ran); validation errors
// are returned as-is, never masked by the fallback.
func Auto(tm Times, nTasks int) (Assignment, bool, error) {
	a, err := BruteForce(tm, nTasks)
	if err == nil {
		return a, true, nil
	}
	if !errors.Is(err, ErrSearchSpace) {
		return Assignment{}, false, err
	}
	dt, err := FromTimes(tm, nTasks)
	if err != nil {
		return Assignment{}, false, err
	}
	res, err := Schedule(dt, SearchOptions{})
	if err != nil {
		return Assignment{}, false, err
	}
	return res.Dense.Assignment(dt), false, nil
}

// Greedy is the longest-processing-time (LPT) heuristic: tasks sorted by
// their best-GPU time descending, each placed on the GPU minimizing the
// resulting completion time. Sorting longest-first is what buys the
// classical approximation guarantee — on identical machines LPT is within
// 4/3 − 1/(3g) of optimal (Graham 1969), versus 2 − 1/g for arbitrary-order
// list scheduling — and heterogeneous fleets inherit it as a strong
// baseline. It is ListSchedule with a one-task window, run on the dense
// form of tm; GreedyInOrder keeps the unsorted variant for comparison.
func Greedy(tm Times, nTasks int) (Assignment, error) {
	return scheduleTimes(tm, nTasks, ListPolicy{Lookahead: 1})
}

// GreedyInOrder is list scheduling in input order: each task in turn goes
// to the GPU minimizing its completion time, with no LPT sort. This is the
// order-sensitive variant (worst case 2 − 1/g on identical machines) kept
// for golden comparisons and for queues whose arrival order is meaningful.
// It is InOrderPolicy run on the dense form of tm.
func GreedyInOrder(tm Times, nTasks int) (Assignment, error) {
	return scheduleTimes(tm, nTasks, InOrderPolicy{})
}

// scheduleTimes runs a dense policy on a map-form table and expands the
// result. GPU ids follow sorted names and both dense policies break ties
// toward the lower id, so ties go to the alphabetically first GPU. An empty
// queue, which the dense form cannot hold, places nothing and reports
// every GPU at zero load.
func scheduleTimes(tm Times, nTasks int, pol Policy) (Assignment, error) {
	if nTasks == 0 {
		if err := tm.Validate(0); err != nil {
			return Assignment{}, err
		}
		a := Assignment{GPUOf: []string{}}
		finishAssignment(&a, tm)
		return a, nil
	}
	dt, err := FromTimes(tm, nTasks)
	if err != nil {
		return Assignment{}, err
	}
	da, err := pol.Schedule(dt)
	if err != nil {
		return Assignment{}, err
	}
	return da.Assignment(dt), nil
}

// MakespanOf evaluates an existing assignment under a different time table —
// e.g. a predicted-time assignment re-costed with measured times, the
// comparison behind Figure 19's "identical to the oracle" claim.
func MakespanOf(gpuOf []string, tm Times) (float64, error) {
	if err := tm.Validate(len(gpuOf)); err != nil {
		return 0, err
	}
	load := map[string]float64{}
	for i, g := range gpuOf {
		ts, ok := tm[g]
		if !ok {
			return 0, fmt.Errorf("sched: assignment references unknown GPU %q", g)
		}
		load[g] += ts[i]
	}
	span := 0.0
	for _, l := range load {
		if l > span {
			span = l
		}
	}
	return span, nil
}
