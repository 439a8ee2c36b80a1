package sched

// Policy is the pluggable scheduler-policy substrate: a named strategy
// turning a dense time table into an assignment. Fleet-level consumers
// (the planned fleetsim) select policies by configuration and compare them
// on equal tables; everything here is deterministic for a fixed policy
// value and table.
type Policy interface {
	// Name identifies the policy in reports and JSON summaries.
	Name() string
	// Schedule assigns every task in the table to a GPU.
	Schedule(dt *DenseTimes) (*DenseAssignment, error)
}

// ListPolicy is construction-only scheduling: plain LPT (ListSchedule).
type ListPolicy struct{}

// Name implements Policy.
func (ListPolicy) Name() string { return "list-lpt" }

// Schedule implements Policy.
func (ListPolicy) Schedule(dt *DenseTimes) (*DenseAssignment, error) {
	return ListSchedule(dt)
}

// InOrderPolicy is dense list scheduling in input order: each task in turn
// goes to the GPU minimizing its completion time, no LPT sort. It models a
// dispatcher that must place requests as they arrive, and is the baseline
// the fleetsim policy-seam tests separate from ListPolicy by construction
// (worst case 2 − 1/g on identical machines).
type InOrderPolicy struct{}

// Name implements Policy.
func (InOrderPolicy) Name() string { return "greedy-inorder" }

// Schedule implements Policy.
func (InOrderPolicy) Schedule(dt *DenseTimes) (*DenseAssignment, error) {
	if dt == nil {
		return nil, errNilTable
	}
	if err := dt.Validate(); err != nil {
		return nil, err
	}
	a := &DenseAssignment{
		GPUOf: make([]int32, dt.NumTasks()),
		Load:  make([]float64, dt.NumGPUs()),
	}
	for i := 0; i < dt.n; i++ {
		best, bestFinish := 0, a.Load[0]+dt.At(0, i)
		for g := 1; g < len(dt.gpus); g++ {
			if f := a.Load[g] + dt.At(g, i); f < bestFinish {
				best, bestFinish = g, f
			}
		}
		a.GPUOf[i] = int32(best)
		a.Load[best] = bestFinish
		if bestFinish > a.Makespan {
			a.Makespan = bestFinish
		}
	}
	return a, nil
}

// SearchPolicy is the full multi-start local-search pipeline (see
// Schedule) with the scaled default options.
type SearchPolicy struct{}

// Name implements Policy.
func (SearchPolicy) Name() string { return "local-search" }

// Schedule implements Policy.
func (SearchPolicy) Schedule(dt *DenseTimes) (*DenseAssignment, error) {
	res, err := Schedule(dt, SearchOptions{})
	if err != nil {
		return nil, err
	}
	return res.Dense, nil
}
