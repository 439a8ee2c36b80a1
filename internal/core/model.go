// Package core implements the paper's contribution: the family of
// linear-regression performance models for DNN execution time on GPUs.
//
// Four models of increasing fidelity are provided (§5):
//
//   - E2EModel — one regression from total network FLOPs to end-to-end time.
//   - LWModel — one regression per layer type, from layer FLOPs to layer time.
//   - KWModel — per-kernel-group regressions on an automatically classified
//     driver variable (layer input size, layer FLOPs, or layer output size),
//     routed through a layer→kernel mapping table.
//   - IGKW — a KWModel whose regression slopes are re-derived from a target
//     GPU's theoretical memory bandwidth (IGKWBase.Resolve), predicting GPUs
//     that are absent from the training set.
//
// All models are trained purely from dataset records (internal/dataset) and
// predict from network structure alone — they never execute anything and
// never see the synthetic device model's parameters.
package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/dnn"
	"repro/internal/units"
)

// minPrediction floors every per-component time prediction: a fitted line
// with a negative intercept can go below zero at small x, but a kernel or
// layer can never take negative time.
const minPrediction units.Seconds = 1e-7 // 0.1 µs

// Predictor is the common interface of the single-GPU models: predict the
// end-to-end execution time (seconds) of a network structure at a batch
// size, on the GPU the model was trained for.
type Predictor interface {
	// Name returns the model's short name ("E2E", "LW", "KW", "IGKW").
	Name() string
	// GPUName returns the GPU the model predicts for.
	GPUName() string
	// PredictNetwork predicts one batch's end-to-end time in seconds.
	PredictNetwork(n *dnn.Network, batch int) (units.Seconds, error)
}

// Eval is one prediction/measurement pair of an evaluation run.
type Eval struct {
	// Network is the evaluated network's name.
	Network string
	// Predicted and Measured are end-to-end seconds.
	Predicted, Measured units.Seconds
}

// Ratio returns Predicted/Measured, the quantity the paper's S-curve figures
// (11–14) plot.
func (e Eval) Ratio() float64 {
	if e.Measured == 0 {
		return math.Inf(1)
	}
	return float64(e.Predicted / e.Measured)
}

// RelError returns |Predicted−Measured|/Measured.
func (e Eval) RelError() float64 {
	if e.Measured == 0 {
		return math.Inf(1)
	}
	return math.Abs(float64(e.Predicted-e.Measured)) / float64(e.Measured)
}

// MeanRelError returns the average relative error over the evaluations — the
// paper's headline "error" metric (e.g. "0.35" for the E2E model).
func MeanRelError(evals []Eval) float64 {
	if len(evals) == 0 {
		return 0
	}
	var s float64
	for _, e := range evals {
		s += e.RelError()
	}
	return s / float64(len(evals))
}

// SortedRatios returns the Predicted/Measured ratios in ascending order —
// the S-curves of Figures 11–14.
func SortedRatios(evals []Eval) []float64 {
	out := make([]float64, len(evals))
	for i, e := range evals {
		out[i] = e.Ratio()
	}
	sort.Float64s(out)
	return out
}

// FractionWithin returns the fraction of evaluations whose relative error is
// at most tol (Figure 14's "about half of the models with an error of less
// than 10%").
func FractionWithin(evals []Eval, tol float64) float64 {
	if len(evals) == 0 {
		return 0
	}
	n := 0
	for _, e := range evals {
		if e.RelError() <= tol {
			n++
		}
	}
	return float64(n) / float64(len(evals))
}

// clampTime floors a component prediction at minPrediction.
//
//dnnperf:allocfree
func clampTime(t units.Seconds) units.Seconds {
	if t < minPrediction || t.IsNaN() {
		return minPrediction
	}
	return t
}

// DefaultEpsilon is the relative tolerance ApproxEqual applies when callers
// have no domain-specific bound: ~1e4 ULPs, loose enough to absorb
// re-association noise from refactored float pipelines, tight enough to
// distinguish any two measurements the profiler can produce.
const DefaultEpsilon = 1e-12

// ApproxEqual reports whether two floats agree within eps, scaled by the
// larger magnitude (absolute comparison near zero). It is the blessed
// replacement for `==`/`!=` on floats in non-test code: exact float equality
// silently turns into "never equal" under re-association or FMA contraction,
// so the floateq analyzer (internal/analysis) flags raw comparisons and
// points here.
func ApproxEqual(a, b, eps float64) bool {
	if a == b { // fast path; also handles ±Inf
		return true
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return false // unequal infinities; Inf-scale would absorb any finite gap below
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale > 1 {
		return diff <= eps*scale
	}
	return diff <= eps
}

// errNoRecords standardizes the "empty training data" failure.
func errNoRecords(model, gpu string) error {
	return fmt.Errorf("core: %s model: no training records for GPU %q", model, gpu)
}
