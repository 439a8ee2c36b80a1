package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/gpu"
	"repro/internal/rng"
	"repro/internal/sched"
)

// Cluster-scale scheduling: the case-study-3 pattern ("models as a fast
// oracle inside a search loop") taken from the paper's 9 tasks × 2 GPUs to
// a heterogeneous fleet and queues of up to 10⁶ tasks. The time table is
// filled from one core.PredictGrid over (model, network, clusterBatches) —
// one sweep per (model, network) pair, however long the queue — and the
// schedule comes from sched.Schedule — LPT-lookahead construction plus
// multi-start annealed local search with a certified optimality gap.

// clusterFleet is the 8-GPU heterogeneous fleet: four measured devices plus
// four bandwidth-modified hypotheticals resolved through the interpolated
// base model — the procurement-style mix only a prediction-backed scheduler
// can plan for, since half the fleet cannot be benchmarked.
func clusterFleet() []gpu.Spec {
	return []gpu.Spec{
		gpu.A100, gpu.A40, gpu.GTX1080Ti, gpu.V100,
		gpu.A100.WithBandwidth(1200),
		gpu.A40.WithBandwidth(500),
		gpu.V100.WithBandwidth(1100),
		gpu.GTX1080Ti.WithBandwidth(300),
	}
}

// clusterNets is the queue's network mix — the paper's nine-network
// scheduling queue.
func clusterNets() []string { return figure19Nets }

// clusterBatches is the batch-size palette tasks draw from: the few unique
// (network, batch) combinations are what keeps table construction at one
// sweep per pair regardless of queue length.
var clusterBatches = []int{1, 4, 16, 64, 256}

// FleetOracle resolves the step-time oracle inputs for fleet simulation:
// the 8-GPU cluster fleet's prediction models (the interpolated base fit
// on the DSE training GPUs, resolved per spec — half the fleet is
// hypothetical and cannot be benchmarked) and the nine-network serving
// mix. The caller compiles them into a step table (fleetsim.BuildStepTable)
// over whatever batch range its simulation needs.
func FleetOracle(l *Lab) ([]core.SweepPredictor, []*dnn.Network, error) {
	ds, err := l.Dataset(dseTrainGPUs()...)
	if err != nil {
		return nil, nil, err
	}
	base, err := core.FitIGKWBase(ds, dseTrainGPUs(), TrainBatch)
	if err != nil {
		return nil, nil, err
	}
	fleet := clusterFleet()
	models := make([]core.SweepPredictor, len(fleet))
	for i, spec := range fleet {
		m, err := base.Resolve(spec)
		if err != nil {
			return nil, nil, err
		}
		models[i] = m
	}
	names := clusterNets()
	nets := make([]*dnn.Network, len(names))
	for i, name := range names {
		if nets[i], err = l.Network(name); err != nil {
			return nil, nil, err
		}
	}
	return models, nets, nil
}

// ClusterScheduleResult is one cluster-scale scheduling run.
type ClusterScheduleResult struct {
	Tasks    int      `json:"tasks"`
	Fleet    []string `json:"fleet"`
	Networks []string `json:"networks"`
	Seed     int64    `json:"seed"`
	// Makespan/LowerBound in seconds; Gap = (Makespan−LB)/LB.
	Makespan   float64 `json:"makespan_s"`
	LowerBound float64 `json:"lower_bound_s"`
	Gap        float64 `json:"gap"`
	// TableSeconds/SearchSeconds split the pipeline wall time between
	// building the prediction table and searching over it; TasksPerSec is
	// Tasks over the total.
	TableSeconds  float64 `json:"table_s"`
	SearchSeconds float64 `json:"search_s"`
	TasksPerSec   float64 `json:"tasks_per_sec"`
	// Search effort, summed over restarts.
	MovesTried  int64 `json:"moves_tried"`
	SwapsTried  int64 `json:"swaps_tried"`
	BestRestart int   `json:"best_restart"`
	// Load[g] is GPU g's assigned seconds under the returned schedule.
	Load map[string]float64 `json:"load_s"`
}

// ClusterSchedule predicts a time table for a seeded synthetic queue of
// nTasks (network, batch) jobs over the 8-GPU fleet and schedules it. The
// same (lab, nTasks, seed) always produces the same schedule.
func ClusterSchedule(l *Lab, nTasks int, seed int64) (*ClusterScheduleResult, error) {
	if nTasks <= 0 {
		return nil, fmt.Errorf("bench: cluster schedule needs a positive task count, got %d", nTasks)
	}
	models, nets, err := FleetOracle(l)
	if err != nil {
		return nil, err
	}

	// Seeded task sampling: one draw per task picks its network from the
	// low bits and its batch (an index into clusterBatches) from the high
	// bits, deterministic in the seed.
	taskNet := make([]int, nTasks)
	taskBatch := make([]int, nTasks)
	r := rng.New(uint64(seed))
	for i := range taskNet {
		z := r.Uint64()
		taskNet[i] = int(z % uint64(len(nets)))
		taskBatch[i] = int((z >> 32) % uint64(len(clusterBatches)))
	}

	tableStart := time.Now()
	grid, err := core.PredictGrid(models, nets, clusterBatches)
	if err != nil {
		return nil, err
	}
	dt, err := sched.NewDenseTimes(grid.GPUs, nTasks)
	if err != nil {
		return nil, err
	}
	for g, secs := range grid.Seconds {
		row := dt.Row(g)
		for i := range row {
			row[i] = secs[taskNet[i]][taskBatch[i]].Float64()
		}
	}
	tableSecs := time.Since(tableStart).Seconds()

	searchStart := time.Now()
	// Model-driven instances are more structured than Synthetic ones (45
	// distinct task durations, a strictly dominant fastest GPU), and the
	// size-scaled default move budget under-converges on them below ~10⁵
	// tasks. Pin the budget to the large-instance level instead; it is the
	// default anyway once nTasks reaches 10⁶.
	opt := sched.SearchOptions{Seed: seed, Moves: 2_000_000}
	res, err := sched.Schedule(dt, opt)
	if err != nil {
		return nil, err
	}
	searchSecs := time.Since(searchStart).Seconds()

	load := make(map[string]float64, dt.NumGPUs())
	for g, name := range dt.GPUs() {
		load[name] = res.Dense.Load[g]
	}
	out := &ClusterScheduleResult{
		Tasks: nTasks, Fleet: dt.GPUs(), Networks: clusterNets(), Seed: seed,
		Makespan: res.Makespan, LowerBound: res.LowerBound, Gap: res.Gap,
		TableSeconds: tableSecs, SearchSeconds: searchSecs,
		TasksPerSec: float64(nTasks) / (tableSecs + searchSecs),
		MovesTried:  res.MovesTried, SwapsTried: res.SwapsTried,
		BestRestart: res.BestRestart,
		Load:        load,
	}
	return out, nil
}

// Render implements the result-rendering convention.
func (r *ClusterScheduleResult) Render() string {
	rows := [][]string{{"GPU", "assigned load (s)"}}
	for _, name := range r.Fleet {
		rows = append(rows, []string{name, fmt.Sprintf("%.3f", r.Load[name])})
	}
	rows = append(rows,
		[]string{"tasks", fmt.Sprintf("%d", r.Tasks)},
		[]string{"makespan", fmt.Sprintf("%.3f s", r.Makespan)},
		[]string{"lower bound", fmt.Sprintf("%.3f s", r.LowerBound)},
		[]string{"optimality gap", fmt.Sprintf("%.2f %%", 100*r.Gap)},
		[]string{"table build", fmt.Sprintf("%.2f s", r.TableSeconds)},
		[]string{"search", fmt.Sprintf("%.2f s", r.SearchSeconds)},
		[]string{"throughput", fmt.Sprintf("%.0f tasks/s", r.TasksPerSec)})
	return renderTable(fmt.Sprintf("Cluster-scale scheduling: %d tasks across the %d-GPU fleet (seed %d)",
		r.Tasks, len(r.Fleet), r.Seed), rows)
}
