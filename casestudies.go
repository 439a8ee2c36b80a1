package repro

import (
	"repro/internal/core"
	"repro/internal/disagg"
	"repro/internal/sched"
)

// This file exposes the building blocks of the paper's three case studies
// (§6) through the public facade.

// ---------------------------------------------------------- case study 1

// IGKWBase is the target-independent part of the inter-GPU model. Fitting
// the base once and resolving many (possibly hypothetical) targets is what
// makes bandwidth design-space exploration take milliseconds per point.
type IGKWBase = core.IGKWBase

// TrainIGKWBase performs the per-GPU training work shared by every target
// GPU; resolve concrete targets with (*IGKWBase).Resolve.
func TrainIGKWBase(ds *Dataset, trainGPUs []GPU) (*IGKWBase, error) {
	return core.FitIGKWBase(ds, trainGPUs, TrainBatchSize)
}

// ---------------------------------------------------------- case study 2

// DisaggConfig describes a disaggregated-memory system: link bandwidth and
// latency to the remote pool, and the local-memory prefetch window.
type DisaggConfig = disagg.Config

// DisaggLayerJob is one layer's compute time and remote traffic.
type DisaggLayerJob = disagg.LayerJob

// DisaggResult summarizes one disaggregated-memory simulation.
type DisaggResult = disagg.Result

// SimulateDisagg runs the event-driven disaggregated-memory model over the
// layer jobs.
func SimulateDisagg(jobs []DisaggLayerJob, cfg DisaggConfig) (DisaggResult, error) {
	return disagg.Simulate(jobs, cfg)
}

// SweepDisagg simulates the job list across several link bandwidths.
func SweepDisagg(jobs []DisaggLayerJob, base DisaggConfig, bandwidthsGBps []float64) ([]DisaggResult, error) {
	return disagg.Sweep(jobs, base, bandwidthsGBps)
}

// DisaggSpeedups normalizes sweep totals to the first entry (the paper plots
// speedup over a 16 GB/s link).
func DisaggSpeedups(results []DisaggResult) []float64 { return disagg.Speedups(results) }

// DisaggJobsFromNetwork assembles the per-layer job list for a network at a
// batch size, taking compute times from a trained kernel-wise model and
// counting weights plus input/output activations as remote traffic.
func DisaggJobsFromNetwork(n *Network, batch int, kw *KWModel) ([]DisaggLayerJob, error) {
	return disagg.JobsFromNetwork(n, batch, kw.PredictLayerTime)
}

// ---------------------------------------------------------- case study 3

// ScheduleTimes is the scheduling time table: per-task seconds on each GPU,
// one flat gpu-major row per GPU, with the GPUs interned as ids in the
// order given to NewScheduleTimes. Every scheduling call below takes it,
// from the paper's nine-network queue to ~10⁶ tasks × dozens of GPU types.
type ScheduleTimes = sched.DenseTimes

// ScheduleAssignment maps each task to a GPU id of its table, with per-GPU
// loads and the makespan.
type ScheduleAssignment = sched.DenseAssignment

// NewScheduleTimes allocates an empty table for nTasks tasks on the GPUs;
// fill each GPU's row in place through Row.
func NewScheduleTimes(gpus []string, nTasks int) (*ScheduleTimes, error) {
	return sched.NewDenseTimes(gpus, nTasks)
}

// ChooseGPU returns, per task, the id of the GPU with the smallest time;
// ties go to the lowest id.
func ChooseGPU(tm *ScheduleTimes) ([]int32, error) {
	return sched.ChooseGPU(tm)
}

// ScheduleBruteForce enumerates every assignment (≤ 16 tasks, ≤ 4 GPUs) and
// returns one with minimal makespan. Beyond those limits the error wraps
// ErrScheduleSearchSpace; ScheduleAuto handles the fallback automatically.
func ScheduleBruteForce(tm *ScheduleTimes) (*ScheduleAssignment, error) {
	return sched.BruteForce(tm)
}

// ScheduleGreedyInOrder places tasks in input order on the earliest-finish
// GPU — the weaker heuristic that ScheduleList's longest-first order
// improves on; kept for queues that must be served in arrival order.
func ScheduleGreedyInOrder(tm *ScheduleTimes) (*ScheduleAssignment, error) {
	return sched.InOrderPolicy{}.Schedule(tm)
}

// ErrScheduleSearchSpace marks a brute-force request whose search space is
// too large to enumerate; detect it with errors.Is.
var ErrScheduleSearchSpace = sched.ErrSearchSpace

// ScheduleAuto brute-forces when the search space permits and falls back to
// the cluster-scale optimizer (list scheduling plus local search) otherwise.
// The flag reports whether the returned assignment is the exact optimum.
func ScheduleAuto(tm *ScheduleTimes) (*ScheduleAssignment, bool, error) {
	return sched.Auto(tm)
}

// MakespanOf re-costs an assignment under a different time table (e.g. a
// predicted-time schedule evaluated with measured times). gpuOf holds ids
// into gpus, the GPU list of the table the assignment was made on; tm must
// list the same GPUs in the same order.
func MakespanOf(gpuOf []int32, gpus []string, tm *ScheduleTimes) (float64, error) {
	return sched.MakespanOf(gpuOf, gpus, tm)
}

// ScheduleSearchOptions tunes the makespan search; the zero value picks
// size-appropriate defaults.
type ScheduleSearchOptions = sched.SearchOptions

// ScheduleSearchResult is a schedule with its certified optimality gap.
type ScheduleSearchResult = sched.SearchResult

// ScheduleSearch runs the cluster-scale makespan optimizer: LPT-lookahead
// construction, multi-start annealed local search with O(1) incremental
// move evaluation, and a lower bound certifying the optimality gap. It
// handles ~10⁶ tasks × dozens of GPU types in seconds.
func ScheduleSearch(tm *ScheduleTimes, opt ScheduleSearchOptions) (*ScheduleSearchResult, error) {
	return sched.Schedule(tm, opt)
}

// ScheduleList runs only a construction heuristic: plain
// longest-processing-time (LPT) list scheduling.
func ScheduleList(tm *ScheduleTimes) (*ScheduleAssignment, error) {
	return sched.ListSchedule(tm)
}

// ScheduleLowerBound certifies a makespan lower bound for the instance; no
// schedule can beat it, so (makespan−bound)/bound bounds suboptimality.
func ScheduleLowerBound(tm *ScheduleTimes) (float64, error) {
	return sched.LowerBound(tm)
}
