package core

import (
	"fmt"
	"sort"

	"repro/internal/dataset"
	"repro/internal/dnn"
	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/regression"
	"repro/internal/units"
)

// LWModel is the Layer-Wise model of §5.3: an independent linear regression
// per layer type from layer FLOPs to layer time; a network's predicted time
// is the sum of its layers' predictions.
type LWModel struct {
	// GPU is the device the model was trained on.
	GPU string
	// TrainBatch is the batch size of the training measurements.
	TrainBatch int
	// Lines maps each layer kind to its fitted FLOPs→seconds regression.
	Lines map[dnn.Kind]regression.Line
	// Pooled is the all-layers fallback regression for layer kinds absent
	// from the training set.
	Pooled regression.Line
}

// FitLW trains a Layer-Wise model from the dataset's layer records on the
// given GPU at the given batch size: one FLOPs→seconds line per layer kind,
// plus the pooled line over every kind.
func FitLW(ds *dataset.Dataset, gpuName string, trainBatch int) (*LWModel, error) {
	byKind := map[dnn.Kind][][2]float64{}
	var allX, allY []float64
	for _, r := range ds.Layers {
		if r.GPU != gpuName || r.BatchSize != trainBatch {
			continue
		}
		k := dnn.Kind(r.Kind)
		byKind[k] = append(byKind[k], [2]float64{float64(r.FLOPs), float64(r.Seconds)})
		allX = append(allX, float64(r.FLOPs))
		allY = append(allY, float64(r.Seconds))
	}
	if len(allX) == 0 {
		return nil, errNoRecords("LW", gpuName)
	}
	pooled, err := regression.Fit(allX, allY)
	if err != nil {
		return nil, fmt.Errorf("core: LW model: pooled fit: %w", err)
	}
	m := &LWModel{GPU: gpuName, TrainBatch: trainBatch,
		Lines: make(map[dnn.Kind]regression.Line, len(byKind)), Pooled: pooled}
	for k, pts := range byKind {
		xs := make([]float64, len(pts))
		ys := make([]float64, len(pts))
		for i, p := range pts {
			xs[i], ys[i] = p[0], p[1]
		}
		line, err := regression.Fit(xs, ys)
		if err != nil {
			// A kind with degenerate data (e.g. a single record) falls back
			// to the pooled line at prediction time.
			continue
		}
		m.Lines[k] = line
	}
	return m, nil
}

// Name implements Predictor.
func (m *LWModel) Name() string { return "LW" }

// GPUName implements Predictor.
func (m *LWModel) GPUName() string { return m.GPU }

// PredictLayer predicts one layer's execution time from its kind and FLOPs.
func (m *LWModel) PredictLayer(kind dnn.Kind, flops units.FLOPs) units.Seconds {
	if line, ok := m.Lines[kind]; ok {
		return clampTime(units.Seconds(line.Predict(float64(flops))))
	}
	return clampTime(units.Seconds(m.Pooled.Predict(float64(flops))))
}

// PredictNetwork implements Predictor: the sum of per-layer predictions over
// the network's layers that dispatch GPU work.
func (m *LWModel) PredictNetwork(n *dnn.Network, batch int) (units.Seconds, error) {
	tm := obs.StartTimer(metricLWPredict)
	defer tm.Stop()
	if err := n.Infer(batch); err != nil {
		return 0, err
	}
	var total units.Seconds
	for _, l := range n.Layers {
		if len(kernels.ForLayer(l)) == 0 {
			continue // view-only layers dispatch no GPU work
		}
		total += m.PredictLayer(l.Kind, units.FLOPs(dnn.LayerFLOPs(l)))
	}
	return total, nil
}

// KindsCovered returns the layer kinds with dedicated regressions, sorted.
func (m *LWModel) KindsCovered() []dnn.Kind {
	out := make([]dnn.Kind, 0, len(m.Lines))
	for k := range m.Lines {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
