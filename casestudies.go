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

// ScheduleTimes holds per-GPU execution time estimates for a task list.
type ScheduleTimes = sched.Times

// ScheduleAssignment maps tasks to GPUs with the resulting makespan.
type ScheduleAssignment = sched.Assignment

// ChooseGPU returns, per task, the GPU with the smallest time.
func ChooseGPU(tm ScheduleTimes, nTasks int) ([]string, error) {
	return sched.ChooseGPU(tm, nTasks)
}

// ScheduleBruteForce enumerates every assignment (≤ 16 tasks, ≤ 4 GPUs) and
// returns one with minimal makespan. Beyond those limits the error wraps
// ErrScheduleSearchSpace; ScheduleAuto handles the fallback automatically.
func ScheduleBruteForce(tm ScheduleTimes, nTasks int) (ScheduleAssignment, error) {
	return sched.BruteForce(tm, nTasks)
}

// ScheduleGreedy is the scalable longest-processing-time heuristic.
func ScheduleGreedy(tm ScheduleTimes, nTasks int) (ScheduleAssignment, error) {
	return sched.Greedy(tm, nTasks)
}

// ScheduleGreedyInOrder places tasks in input order on the earliest-finish
// GPU — the weaker heuristic ScheduleGreedy improved on; kept for queues
// that must be served in arrival order.
func ScheduleGreedyInOrder(tm ScheduleTimes, nTasks int) (ScheduleAssignment, error) {
	return sched.GreedyInOrder(tm, nTasks)
}

// ErrScheduleSearchSpace marks a brute-force request whose search space is
// too large to enumerate; detect it with errors.Is.
var ErrScheduleSearchSpace = sched.ErrSearchSpace

// ScheduleAuto brute-forces when the search space permits and falls back to
// the cluster-scale optimizer (list scheduling plus local search) otherwise.
// The flag reports whether the returned assignment is the exact optimum.
func ScheduleAuto(tm ScheduleTimes, nTasks int) (ScheduleAssignment, bool, error) {
	return sched.Auto(tm, nTasks)
}

// MakespanOf re-costs an assignment under a different time table (e.g. a
// predicted-time schedule evaluated with measured times).
func MakespanOf(gpuOf []string, tm ScheduleTimes) (float64, error) {
	return sched.MakespanOf(gpuOf, tm)
}

// ------------------------------------------- cluster-scale scheduling

// ScheduleDenseTimes is the dense gpu-major time table the cluster-scale
// optimizer works on; build one with NewScheduleDenseTimes and fill its
// rows, or convert a map-form table with ScheduleDenseFromTimes.
type ScheduleDenseTimes = sched.DenseTimes

// ScheduleDenseAssignment is a schedule over a dense table.
type ScheduleDenseAssignment = sched.DenseAssignment

// ScheduleSearchOptions tunes the makespan search; the zero value picks
// size-appropriate defaults.
type ScheduleSearchOptions = sched.SearchOptions

// ScheduleSearchResult is a schedule with its certified optimality gap.
type ScheduleSearchResult = sched.SearchResult

// NewScheduleDenseTimes allocates an empty dense table for the GPUs.
func NewScheduleDenseTimes(gpus []string, nTasks int) (*ScheduleDenseTimes, error) {
	return sched.NewDenseTimes(gpus, nTasks)
}

// ScheduleDenseFromTimes converts a map-form time table to dense form.
func ScheduleDenseFromTimes(tm ScheduleTimes, nTasks int) (*ScheduleDenseTimes, error) {
	return sched.FromTimes(tm, nTasks)
}

// ScheduleSearch runs the cluster-scale makespan optimizer: LPT-lookahead
// construction, multi-start annealed local search with O(1) incremental
// move evaluation, and a lower bound certifying the optimality gap. It
// handles ~10⁶ tasks × dozens of GPU types in seconds.
func ScheduleSearch(dt *ScheduleDenseTimes, opt ScheduleSearchOptions) (*ScheduleSearchResult, error) {
	return sched.Schedule(dt, opt)
}

// ScheduleList runs only the construction heuristic: longest-processing-time
// order with a bounded-lookahead regret rule.
func ScheduleList(dt *ScheduleDenseTimes, lookahead int) (*ScheduleDenseAssignment, error) {
	return sched.ListSchedule(dt, lookahead)
}

// ScheduleLowerBound certifies a makespan lower bound for the instance; no
// schedule can beat it, so (makespan−bound)/bound bounds suboptimality.
func ScheduleLowerBound(dt *ScheduleDenseTimes) (float64, error) {
	return sched.LowerBound(dt)
}
