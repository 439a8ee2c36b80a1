package core

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/dnn"
	"repro/internal/obs"
	"repro/internal/regression"
	"repro/internal/units"
)

// E2EModel is the End-to-End model of §5.2: a single linear regression from
// a network's total theoretical FLOPs to its end-to-end execution time,
// trained at the fully-utilizing batch size. Observation O3 (time is linear
// in batch size because FLOPs are) lets the same line predict other batch
// sizes, since the input FLOPs are recomputed at the requested batch.
type E2EModel struct {
	// GPU is the device the model was trained on.
	GPU string
	// TrainBatch is the batch size of the training measurements.
	TrainBatch int
	// Line is the fitted FLOPs→seconds regression.
	Line regression.Line
}

// FitE2E trains an End-to-End model from the dataset's network records on
// the given GPU at the given batch size (the paper uses BS=512).
func FitE2E(ds *dataset.Dataset, gpuName string, trainBatch int) (*E2EModel, error) {
	var xs, ys []float64
	for _, r := range ds.Networks {
		if r.GPU != gpuName || r.BatchSize != trainBatch {
			continue
		}
		xs = append(xs, float64(r.TotalFLOPs))
		ys = append(ys, float64(r.E2ESeconds))
	}
	if len(xs) == 0 {
		return nil, errNoRecords("E2E", gpuName)
	}
	line, err := regression.Fit(xs, ys)
	if err != nil {
		return nil, fmt.Errorf("core: E2E model: %w", err)
	}
	return &E2EModel{GPU: gpuName, TrainBatch: trainBatch, Line: line}, nil
}

// Name implements Predictor.
func (m *E2EModel) Name() string { return "E2E" }

// GPUName implements Predictor.
func (m *E2EModel) GPUName() string { return m.GPU }

// PredictFLOPs predicts end-to-end seconds from a total-FLOPs count.
func (m *E2EModel) PredictFLOPs(totalFLOPs units.FLOPs) units.Seconds {
	return clampTime(units.Seconds(m.Line.Predict(float64(totalFLOPs))))
}

// PredictNetwork implements Predictor: it shape-infers the network at the
// requested batch size, computes the theoretical FLOPs, and evaluates the
// regression.
func (m *E2EModel) PredictNetwork(n *dnn.Network, batch int) (units.Seconds, error) {
	tm := obs.StartTimer(metricE2EPredict)
	defer tm.Stop()
	flops, err := n.FLOPsAt(batch)
	if err != nil {
		return 0, err
	}
	return m.PredictFLOPs(units.FLOPs(flops)), nil
}
