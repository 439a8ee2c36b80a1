package bench

import (
	"fmt"
	"sort"

	"repro/internal/dataset"
	"repro/internal/dnn"
	"repro/internal/gpu"
	"repro/internal/units"
)

// UncertaintyResult validates the KW model's prediction intervals: for every
// held-out network, the measured kernel-time total should fall inside the
// ±2σ band about 95 % of the time. (The intervals quantify the regression
// layer's scatter, so the target quantity is the summed kernel time — the
// end-to-end wall time additionally carries the systematic pipelining gap
// the small-batch correction models.)
type UncertaintyResult struct {
	GPU string
	// Coverage is the fraction of held-out networks whose measured kernel
	// total falls in the ±2σ interval.
	Coverage float64
	// MeanRelMargin is the average 2σ half-width relative to the prediction
	// — how tight the intervals are.
	MeanRelMargin float64
	// Networks is the evaluated network count.
	Networks int
}

// Uncertainty evaluates interval coverage on the canonical split.
func Uncertainty(l *Lab, g gpu.Spec) (*UncertaintyResult, error) {
	ds, err := l.Dataset(g)
	if err != nil {
		return nil, err
	}
	_, test := l.Split(ds)
	kw, err := l.KW(g)
	if err != nil {
		return nil, err
	}

	// Measured kernel totals per held-out network, from the kernel records.
	measured := map[string]units.Seconds{}
	recsOf := map[string][]dataset.KernelRecord{}
	for _, r := range test.Kernels {
		if r.GPU != g.Name || r.BatchSize != TrainBatch {
			continue
		}
		measured[r.Network] += r.Seconds
		recsOf[r.Network] = append(recsOf[r.Network], r)
	}
	taskOf := map[string]string{}
	for _, r := range test.Networks {
		taskOf[r.Network] = r.Task
	}

	res := &UncertaintyResult{GPU: g.Name}
	covered := 0
	var relMargin float64
	names := make([]string, 0, len(measured))
	for name := range measured {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		meas := measured[name]
		if taskOf[name] != string(dnn.TaskImageClassification) {
			continue
		}
		iv := kw.PredictRecordsInterval(recsOf[name])
		if iv.Contains(meas) {
			covered++
		}
		if iv.Predicted > 0 {
			relMargin += 2 * float64(iv.Margin) / float64(iv.Predicted)
		}
		res.Networks++
	}
	if res.Networks == 0 {
		return nil, fmt.Errorf("bench: uncertainty: no held-out kernel records")
	}
	res.Coverage = float64(covered) / float64(res.Networks)
	res.MeanRelMargin = relMargin / float64(res.Networks)
	return res, nil
}

// Render implements the result-rendering convention.
func (r *UncertaintyResult) Render() string {
	rows := [][]string{{"metric", "value"}}
	rows = append(rows,
		[]string{"held-out networks", fmt.Sprintf("%d", r.Networks)},
		[]string{"±2σ coverage of measured kernel totals", fmt.Sprintf("%.0f%%", r.Coverage*100)},
		[]string{"mean interval half-width (2σ / prediction)", fmt.Sprintf("%.1f%%", r.MeanRelMargin*100)})
	return renderTable(fmt.Sprintf("Uncertainty: KW prediction-interval coverage (%s)", r.GPU), rows)
}
