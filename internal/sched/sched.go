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
// Every entry point takes the one DenseTimes table and answers in its
// interned GPU ids.
package sched

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// ChooseGPU returns, for each task, the id of the GPU with the smallest
// time — the per-network decision of Figure 18 ("which GPU runs the network
// faster"). Ties go to the lowest id.
func ChooseGPU(dt *DenseTimes) ([]int32, error) {
	if dt == nil {
		return nil, errNilTable
	}
	if err := dt.Validate(); err != nil {
		return nil, err
	}
	return taskMins(dt).arg, nil
}

// maxBruteForceTasks bounds the exhaustive search (g^n assignments).
const maxBruteForceTasks = 16

// ErrSearchSpace marks a scheduling request whose exhaustive search space is
// too large to enumerate (g^n assignments blow up exponentially). Callers
// detect it with errors.Is and fall back to ListSchedule or Schedule — or
// call Auto, which does exactly that.
var ErrSearchSpace = errors.New("sched: search space too large for brute force")

// BruteForce enumerates every assignment of tasks to GPUs and returns one
// with minimal makespan ("thanks to the extremely fast execution, we can
// easily run a brute force design space search", §6). It requires at most
// 16 tasks and, unless the queue is empty, 4 GPUs; beyond either limit it
// returns an error wrapping ErrSearchSpace. Among equal makespans the first
// assignment in enumeration order wins, task 0's GPU id varying fastest.
func BruteForce(dt *DenseTimes) (*DenseAssignment, error) {
	if dt == nil {
		return nil, errNilTable
	}
	if err := dt.Validate(); err != nil {
		return nil, err
	}
	n, g := dt.n, len(dt.gpus)
	if n > maxBruteForceTasks {
		return nil, fmt.Errorf("%w: limited to %d tasks, got %d", ErrSearchSpace, maxBruteForceTasks, n)
	}
	if n > 0 && g > 4 {
		return nil, fmt.Errorf("%w: limited to 4 GPUs, got %d", ErrSearchSpace, g)
	}

	total := 1
	for i := 0; i < n; i++ {
		total *= g
	}
	best := &DenseAssignment{}
	bestSpan := math.Inf(1)
	choice := make([]int32, n)
	loads := make([]float64, g)
	for code := 0; code < total; code++ {
		c := code
		for i := range loads {
			loads[i] = 0
		}
		for i := 0; i < n; i++ {
			choice[i] = int32(c % g)
			c /= g
			loads[choice[i]] += dt.At(int(choice[i]), i)
		}
		if span := slices.Max(loads); span < bestSpan {
			bestSpan = span
			best.GPUOf = slices.Clone(choice)
		}
	}
	finishDense(best, dt)
	return best, nil
}

// Auto schedules with BruteForce when the search space permits; when
// BruteForce reports ErrSearchSpace it routes to the cluster-scale path —
// LPT-lookahead construction and multi-start local search via Schedule with
// default options. The returned flag is true when the assignment is the
// exact optimum (brute force ran); validation errors are returned as-is,
// never masked by the fallback.
func Auto(dt *DenseTimes) (*DenseAssignment, bool, error) {
	a, err := BruteForce(dt)
	if err == nil {
		return a, true, nil
	}
	if !errors.Is(err, ErrSearchSpace) {
		return nil, false, err
	}
	res, err := Schedule(dt, SearchOptions{})
	if err != nil {
		return nil, false, err
	}
	return res.Dense, false, nil
}

// MakespanOf evaluates an existing assignment under a different time table —
// e.g. a predicted-time assignment re-costed with measured times, the
// comparison behind Figure 19's "identical to the oracle" claim. gpuOf[i]
// is an id into gpus, the GPU list of the table the assignment was made
// on; dt must list the same GPUs in the same order.
func MakespanOf(gpuOf []int32, gpus []string, dt *DenseTimes) (float64, error) {
	if dt == nil {
		return 0, errNilTable
	}
	if err := dt.Validate(); err != nil {
		return 0, err
	}
	if !slices.Equal(gpus, dt.gpus) {
		return 0, fmt.Errorf("sched: assignment GPUs %q differ from the table's %q", gpus, dt.gpus)
	}
	if len(gpuOf) != dt.n {
		return 0, fmt.Errorf("sched: assignment has %d tasks, table %d", len(gpuOf), dt.n)
	}
	for i, g := range gpuOf {
		if g < 0 || int(g) >= len(dt.gpus) {
			return 0, fmt.Errorf("sched: task %d assigned to GPU id %d of %d", i, g, len(dt.gpus))
		}
	}
	a := &DenseAssignment{GPUOf: gpuOf}
	finishDense(a, dt)
	return a.Makespan, nil
}
