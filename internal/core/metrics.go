package core

import (
	"repro/internal/obs"
	"repro/internal/units"
)

// Observability handles for the model layer, registered once at package
// init. Recording is gated by obs.Enabled() through obs.StartTimer, so the
// default (disabled) cost on the prediction hot path is one atomic load.
var (
	metricPlanCompile = obs.Default().Histogram("core_plan_compile_seconds",
		"Latency of compiling a prediction plan for one (network, model) pair.", nil)
	metricKWPredict = obs.Default().Histogram("core_kw_predict_seconds",
		"Latency of KWModel.PredictNetwork (cached or uncached path).", nil)
	metricLWPredict = obs.Default().Histogram("core_lw_predict_seconds",
		"Latency of LWModel.PredictNetwork.", nil)
	metricE2EPredict = obs.Default().Histogram("core_e2e_predict_seconds",
		"Latency of E2EModel.PredictNetwork.", nil)
	metricPlanCompiles = obs.Default().Counter("core_plan_compiles_total",
		"Prediction plans compiled (cache misses of the plan caches).")
	metricSweepPredict = obs.Default().Histogram("core_sweep_predict_seconds",
		"Latency of one model-level PredictSweep call (all batch sizes).", nil)
	metricSweeps = obs.Default().Counter("core_sweeps_total",
		"Batch-size sweep predictions served (one per PredictSweep call).")
	metricSweepPoints = obs.Default().Counter("core_sweep_points_total",
		"Batch-size points evaluated across all sweep predictions.")
	metricSweepSize = obs.Default().ValueHistogram("core_sweep_size",
		"Distribution of batch-size points per sweep prediction.",
		[]units.Seconds{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024})
	metricGrids = obs.Default().Counter("core_grids_total",
		"PredictGrid evaluations.")
	metricGridCells = obs.Default().Counter("core_grid_cells_total",
		"(model, network, batch) cells evaluated across all PredictGrid calls.")
)

// observeSweep records one sweep of the given width into the sweep metrics.
func observeSweep(points int) {
	metricSweeps.Inc()
	metricSweepPoints.Add(int64(points))
	metricSweepSize.Observe(units.Seconds(float64(points)))
}
