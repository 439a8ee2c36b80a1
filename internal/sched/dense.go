package sched

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/rng"
)

// DenseTimes is the package's one time table, from Figure 19's nine tasks
// to the cluster-scale optimizer's millions: one gpu-major []float64 with
// interned GPU ids. For 10⁶ tasks × dozens of GPU types the flat
// layout keeps a full table scan sequential in memory and makes row fills
// (one core.PredictGrid pass over the fleet) plain slice writes.
type DenseTimes struct {
	gpus []string  // interned GPU names; index is the GPU id
	n    int       // task count
	t    []float64 // gpu-major: t[g*n+i] is task i's seconds on GPU g
}

// NewDenseTimes allocates an empty table for nTasks tasks on the given
// GPUs, preserving their order as the interned ids. Fill rows via Row and
// check the result with Validate. An empty queue (nTasks 0) is a valid
// table: every entry point answers it with no placements and every GPU at
// zero load.
func NewDenseTimes(gpus []string, nTasks int) (*DenseTimes, error) {
	if len(gpus) == 0 {
		return nil, fmt.Errorf("sched: no GPUs")
	}
	if nTasks < 0 {
		return nil, fmt.Errorf("sched: task count %d must not be negative", nTasks)
	}
	seen := make(map[string]bool, len(gpus))
	for g, name := range gpus {
		if name == "" {
			return nil, fmt.Errorf("sched: GPU %d has an empty name", g)
		}
		if seen[name] {
			return nil, fmt.Errorf("sched: duplicate GPU name %q", name)
		}
		seen[name] = true
	}
	return &DenseTimes{
		gpus: append([]string(nil), gpus...),
		n:    nTasks,
		t:    make([]float64, len(gpus)*nTasks),
	}, nil
}

// NumGPUs returns the GPU count.
func (dt *DenseTimes) NumGPUs() int { return len(dt.gpus) }

// NumTasks returns the task count.
func (dt *DenseTimes) NumTasks() int { return dt.n }

// GPUs returns the interned GPU names; the slice is shared and must be
// treated as read-only.
func (dt *DenseTimes) GPUs() []string { return dt.gpus }

// At returns task i's time on GPU g, in seconds.
func (dt *DenseTimes) At(g, i int) float64 { return dt.t[g*dt.n+i] }

// Row returns GPU g's full per-task row, aliasing the backing array so
// table builders fill it in place.
func (dt *DenseTimes) Row(g int) []float64 { return dt.t[g*dt.n : (g+1)*dt.n] }

// Validate checks every entry is positive and finite.
func (dt *DenseTimes) Validate() error {
	for g := range dt.gpus {
		row := dt.Row(g)
		for i, v := range row {
			if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("sched: GPU %q task %d has non-positive time %v", dt.gpus[g], i, v)
			}
		}
	}
	return nil
}

// DenseAssignment maps each task to an interned GPU id of its table, with
// per-GPU loads and the makespan; 4 bytes per task keeps it small at
// millions of tasks. Names come from the table's GPUs.
type DenseAssignment struct {
	// GPUOf[i] is the interned id of the GPU task i runs on.
	GPUOf []int32
	// Load[g] is GPU g's total assigned time, seconds.
	Load []float64
	// Makespan is the maximum load.
	Makespan float64
}

// finishDense recomputes loads and makespan from GPUOf with one
// from-scratch pass, clearing any drift incremental updates accumulated.
// Tasks sum in index order, so the result is deterministic.
func finishDense(a *DenseAssignment, dt *DenseTimes) {
	if len(a.Load) != len(dt.gpus) {
		a.Load = make([]float64, len(dt.gpus))
	}
	for g := range a.Load {
		a.Load[g] = 0
	}
	for i, g := range a.GPUOf {
		a.Load[g] += dt.t[int(g)*dt.n+i]
	}
	a.Makespan = 0
	for _, l := range a.Load {
		if l > a.Makespan {
			a.Makespan = l
		}
	}
}

// Synthetic builds a seeded heterogeneous benchmark instance: each GPU gets
// a fleet-speed factor, each task a work size drawn log-uniformly across
// three orders of magnitude, and each (task, GPU) pair an affinity jitter —
// the unrelated-machines structure real DNN fleets show (a kernel mix that
// is fast on one architecture is not uniformly fast on another). The same
// (nTasks, nGPUs, seed) triple always produces the same table.
func Synthetic(nTasks, nGPUs int, seed int64) *DenseTimes {
	names := make([]string, nGPUs)
	for g := range names {
		names[g] = fmt.Sprintf("gpu%02d", g)
	}
	dt, err := NewDenseTimes(names, nTasks)
	if err != nil {
		panic(err) // nTasks/nGPUs are caller constants; misuse is a bug
	}
	r := rng.New(uint64(seed))
	speed := make([]float64, nGPUs)
	for g := range speed {
		speed[g] = 0.5 + 1.5*r.Float64() // 0.5x–2x fleet heterogeneity
	}
	work := make([]float64, nTasks)
	for i := range work {
		// log-uniform task sizes over [1ms, 1s] — a queue of small CNNs and
		// the occasional giant transformer, per the paper's zoo spread.
		work[i] = 1e-3 * math.Pow(10, 3*r.Float64())
	}
	for g := 0; g < nGPUs; g++ {
		row := dt.Row(g)
		for i := range row {
			jitter := 0.8 + 0.4*r.Float64()
			row[i] = work[i] * jitter / speed[g]
		}
	}
	return dt
}

// sortTasksByKeyDesc sorts task ids by key descending, ties by id ascending
// — the deterministic LPT order shared by construction and tests. Uses
// slices.SortFunc: at 10⁶ ids the generic pdqsort is ~2x faster than
// sort.Slice's interface path, and this sort is the single largest fixed
// cost of list scheduling.
func sortTasksByKeyDesc(ids []int32, key []float64) {
	slices.SortFunc(ids, func(a, b int32) int {
		ka, kb := key[a], key[b]
		if ka > kb {
			return -1
		}
		if ka < kb {
			return 1
		}
		return int(a) - int(b)
	})
}
