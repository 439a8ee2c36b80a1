// Package fleetsim is a high-throughput discrete-event simulator for a
// fleet of GPU replicas serving DNN inference traffic. It replays a
// request-arrival trace (or a closed-loop user population) against a
// heterogeneous fleet and reports end-to-end latency percentiles,
// per-replica utilization and queue depths — the capacity-planning view
// ("how many A100s for a million users at p99 < X?") the paper's
// single-task case studies stop short of.
//
// The step-time oracle is the repository's compiled prediction plans: every
// (GPU, network, batch) service time the simulator can ever need is
// memoized into a flat StepTable before replay, one core.PredictSweep per
// (GPU model, network) pair, so the event loop never touches a model, a
// map or an allocation. A request's simulated end-to-end latency is
//
//	E2E = queueing delay            (emergent from the event dynamics)
//	    + batch formation           (requests ride the batch the head forms)
//	    + step time                 (StepTable lookup for the formed batch)
//	    + post-processing           (fixed per-request cost)
//
// Everything is deterministic: seeded internal/rng streams, a binary-heap
// event queue with FIFO sequence tie-breaks, and goroutine-per-scenario
// sweeps that merge into indexed slots — results are bit-identical across
// runs, GOMAXPROCS settings and -race.
package fleetsim

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/rng"
)

// StepTable memoizes the step-time oracle: seconds for one batch of each
// (GPU type, network, batch size) triple, in a flat slice the event loop
// indexes without hashing. Built once before replay and immutable after,
// it is safe to share across concurrent scenario workers.
type StepTable struct {
	gpus     []string // GPU type names; index is the type id replicas refer to
	nets     []string // network names; index is the trace's net id
	maxBatch int
	t        []float64 // [(g·len(nets)+n)·maxBatch + (b−1)] = seconds
}

// NewStepTable allocates a zero-filled table; fill it with Set and check it
// with Validate. Synthetic tables and tests use this directly; production
// tables come from BuildStepTable.
func NewStepTable(gpus, nets []string, maxBatch int) (*StepTable, error) {
	if len(gpus) == 0 || len(nets) == 0 {
		return nil, fmt.Errorf("fleetsim: step table needs at least one GPU and one network")
	}
	if maxBatch <= 0 {
		return nil, fmt.Errorf("fleetsim: max batch %d must be positive", maxBatch)
	}
	return &StepTable{
		gpus:     append([]string(nil), gpus...),
		nets:     append([]string(nil), nets...),
		maxBatch: maxBatch,
		t:        make([]float64, len(gpus)*len(nets)*maxBatch),
	}, nil
}

// GPUs returns the GPU type names; the slice is shared and read-only.
func (st *StepTable) GPUs() []string { return st.gpus }

// Nets returns the network names; the slice is shared and read-only.
func (st *StepTable) Nets() []string { return st.nets }

// MaxBatch returns the largest batch size the table holds times for.
func (st *StepTable) MaxBatch() int { return st.maxBatch }

// At returns the step time in seconds for one batch of size b (1-based) of
// network n on GPU type g. It is the event loop's only oracle access and
// performs no allocation.
//
//dnnperf:allocfree
func (st *StepTable) At(g, n, b int32) float64 {
	return st.t[(int(g)*len(st.nets)+int(n))*st.maxBatch+int(b)-1]
}

// Set stores the step time for (g, n, b), b 1-based.
func (st *StepTable) Set(g, n, b int, secs float64) {
	st.t[(g*len(st.nets)+n)*st.maxBatch+b-1] = secs
}

// Validate checks every entry is positive and finite, the invariant replay
// correctness rests on (a zero service time would livelock the queue math).
func (st *StepTable) Validate() error {
	for i, v := range st.t {
		if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			g := i / (len(st.nets) * st.maxBatch)
			n := (i / st.maxBatch) % len(st.nets)
			return fmt.Errorf("fleetsim: step time (%s, %s, batch %d) = %v, want positive finite",
				st.gpus[g], st.nets[n], i%st.maxBatch+1, v)
		}
	}
	return nil
}

// BuildStepTable compiles the oracle from prediction models: one
// core.PredictGrid over batches 1..maxBatch, so each (model, network) pair
// is one PredictSweep, the table is deterministic and the first failing
// pair in input order wins error reporting. GPU type ids follow the models'
// order, network ids the nets' order.
func BuildStepTable(models []core.SweepPredictor, nets []*dnn.Network, maxBatch int) (*StepTable, error) {
	if len(models) == 0 {
		return nil, fmt.Errorf("fleetsim: step table needs at least one model")
	}
	gpus := make([]string, len(models))
	for g, m := range models {
		gpus[g] = m.GPUName()
	}
	names := make([]string, len(nets))
	for n, net := range nets {
		names[n] = net.Name
	}
	st, err := NewStepTable(gpus, names, maxBatch)
	if err != nil {
		return nil, err
	}
	batches := make([]int, maxBatch)
	for b := range batches {
		batches[b] = b + 1
	}
	grid, err := core.PredictGrid(models, nets, batches)
	if err != nil {
		return nil, err
	}
	for g, perNet := range grid.Seconds {
		for n, out := range perNet {
			for b, v := range out {
				st.Set(g, n, b+1, v.Float64())
			}
		}
	}
	if err := st.Validate(); err != nil {
		return nil, err
	}
	return st, nil
}

// SyntheticStepTable builds a seeded heterogeneous oracle without fitting
// models: each GPU type gets a fleet-speed factor in [0.5, 2), each network
// a batch-1 work size log-uniform over [1ms, 50ms] and a fixed-cost share —
// step time is affine in the batch size, t(b) = w·(α + (1−α)·b)/speed,
// mirroring the per-group linearity the paper's predictors exhibit. The
// same (nGPUs, nNets, maxBatch, seed) always produces the same table.
func SyntheticStepTable(nGPUs, nNets, maxBatch int, seed int64) *StepTable {
	gpus := make([]string, nGPUs)
	for g := range gpus {
		gpus[g] = fmt.Sprintf("gpu%02d", g)
	}
	nets := make([]string, nNets)
	for n := range nets {
		nets[n] = fmt.Sprintf("net%02d", n)
	}
	st, err := NewStepTable(gpus, nets, maxBatch)
	if err != nil {
		panic(err) // caller constants; misuse is a bug
	}
	r := rng.New(uint64(seed))
	speed := make([]float64, nGPUs)
	for g := range speed {
		speed[g] = 0.5 + 1.5*r.Float64()
	}
	for n := 0; n < nNets; n++ {
		work := 1e-3 * math.Pow(50, r.Float64()) // batch-1 seconds in [1ms, 50ms)
		alpha := 0.2 + 0.4*r.Float64()           // fixed-cost share of the batch-1 time
		for g := 0; g < nGPUs; g++ {
			for b := 1; b <= maxBatch; b++ {
				st.Set(g, n, b, work*(alpha+(1-alpha)*float64(b))/speed[g])
			}
		}
	}
	return st
}
