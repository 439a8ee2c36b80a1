package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dnn"
	"repro/internal/gpu"
	"repro/internal/regression"
	"repro/internal/units"
)

// SCurve holds a Predicted/Measured ratio distribution, the content of the
// paper's Figures 11–14.
type SCurve struct {
	Model string
	GPU   string
	Evals []core.Eval
	// MeanError is the headline average relative error.
	MeanError float64
	// Percentiles are the ratio values at the figure's x-axis ticks
	// (0, 10, 25, 50, 75, 90, 100 %).
	Percentiles map[int]float64
}

// sCurveTicks matches the figures' x-axis.
var sCurveTicks = []int{0, 10, 25, 50, 75, 90, 100}

// newSCurve assembles the distribution from evaluations.
func newSCurve(model, gpuName string, evals []core.Eval) SCurve {
	ratios := core.SortedRatios(evals)
	s := SCurve{Model: model, GPU: gpuName, Evals: evals,
		MeanError: core.MeanRelError(evals), Percentiles: map[int]float64{}}
	for _, p := range sCurveTicks {
		s.Percentiles[p] = regression.Percentile(ratios, float64(p))
	}
	return s
}

// renderSCurve lays out one S-curve as table rows.
func renderSCurve(title string, s SCurve) string {
	rows := [][]string{{"percentile", "pred / measured"}}
	for _, p := range sCurveTicks {
		rows = append(rows, []string{fmt.Sprintf("%d%%", p), fmt.Sprintf("%.3f", s.Percentiles[p])})
	}
	rows = append(rows,
		[]string{"networks", fmt.Sprintf("%d", len(s.Evals))},
		[]string{"average error", fmt.Sprintf("%.3f", s.MeanError)})
	return renderTable(title, rows)
}

// evalOnTest is Evaluate at the training batch size.
func (l *Lab) evalOnTest(m core.Predictor, test *dataset.Dataset, task dnn.Task) ([]core.Eval, error) {
	return l.Evaluate(m, test, task, TrainBatch)
}

// Evaluate predicts every network the test set measured on the model's GPU
// at the batch size with the given task, or with any task when task is
// empty, and pairs each prediction with the measured time, in record order.
func (l *Lab) Evaluate(m core.Predictor, test *dataset.Dataset, task dnn.Task, batch int) ([]core.Eval, error) {
	var evals []core.Eval
	for _, r := range test.Networks {
		if r.GPU != m.GPUName() || r.BatchSize != batch || (task != "" && r.Task != string(task)) {
			continue
		}
		net, err := l.Network(r.Network)
		if err != nil {
			return nil, err
		}
		p, err := m.PredictNetwork(net, batch)
		if err != nil {
			return nil, err
		}
		evals = append(evals, core.Eval{Network: r.Network, Predicted: p, Measured: r.E2ESeconds})
	}
	if len(evals) == 0 {
		return nil, fmt.Errorf("bench: no %s test networks for %s on %s at batch %d",
			task, m.Name(), m.GPUName(), batch)
	}
	return evals, nil
}

// ---------------------------------------------------- Figures 11, 12, 13

// ModelFigureResult is the shared shape of Figures 11–13: one model's
// S-curve on one GPU.
type ModelFigureResult struct {
	Figure string
	Curve  SCurve
}

// Render implements the result-rendering convention.
func (r *ModelFigureResult) Render() string {
	return renderSCurve(fmt.Sprintf("%s: %s model predictions on %s (normalized to measured)",
		r.Figure, r.Curve.Model, r.Curve.GPU), r.Curve)
}

// Figure11 trains and evaluates the End-to-End model (paper: 35% on A100).
func Figure11(l *Lab, g gpu.Spec) (*ModelFigureResult, error) {
	ds, err := l.Dataset(g)
	if err != nil {
		return nil, err
	}
	train, test := l.Split(ds)
	m, err := core.FitE2E(train, g.Name, TrainBatch)
	if err != nil {
		return nil, err
	}
	evals, err := l.evalOnTest(m, test, dnn.TaskImageClassification)
	if err != nil {
		return nil, err
	}
	return &ModelFigureResult{Figure: "Figure 11", Curve: newSCurve("E2E", g.Name, evals)}, nil
}

// Figure12 trains and evaluates the Layer-Wise model (paper: 28% on A100).
func Figure12(l *Lab, g gpu.Spec) (*ModelFigureResult, error) {
	ds, err := l.Dataset(g)
	if err != nil {
		return nil, err
	}
	train, test := l.Split(ds)
	m, err := core.FitLW(train, g.Name, TrainBatch)
	if err != nil {
		return nil, err
	}
	evals, err := l.evalOnTest(m, test, dnn.TaskImageClassification)
	if err != nil {
		return nil, err
	}
	return &ModelFigureResult{Figure: "Figure 12", Curve: newSCurve("LW", g.Name, evals)}, nil
}

// Figure13Result extends the KW S-curve with the §5.4 side results: per-GPU
// error rates and the transformer extension.
type Figure13Result struct {
	Curve SCurve
	// KernelCount and ModelCount reproduce "for 182 kernels recorded, we
	// built 83 linear regression models".
	KernelCount, ModelCount int
	// PerGPUError maps each main GPU to its KW test error (paper: 6–9.4%).
	PerGPUError map[string]float64
	// TransformerError is the KW error on the text-classification group
	// (paper: ≈4.76% on A100).
	TransformerError float64
}

// Figure13 trains and evaluates the Kernel-Wise model on every main GPU.
func Figure13(l *Lab, primary gpu.Spec) (*Figure13Result, error) {
	res := &Figure13Result{PerGPUError: map[string]float64{}}
	for _, g := range MainGPUs() {
		ds, err := l.Dataset(g)
		if err != nil {
			return nil, err
		}
		_, test := l.Split(ds)
		m, err := l.KW(g)
		if err != nil {
			return nil, err
		}
		evals, err := l.evalOnTest(m, test, dnn.TaskImageClassification)
		if err != nil {
			return nil, err
		}
		res.PerGPUError[g.Name] = core.MeanRelError(evals)
		if g.Name == primary.Name {
			res.Curve = newSCurve("KW", g.Name, evals)
			res.KernelCount = m.KernelCount()
			res.ModelCount = m.ModelCount()
			txEvals, err := l.evalOnTest(m, test, dnn.TaskTextClassification)
			if err != nil {
				return nil, err
			}
			res.TransformerError = core.MeanRelError(txEvals)
		}
	}
	if res.Curve.Model == "" {
		return nil, fmt.Errorf("bench: figure 13: primary GPU %s not in MainGPUs", primary.Name)
	}
	return res, nil
}

// Render implements the result-rendering convention.
func (r *Figure13Result) Render() string {
	out := renderSCurve(fmt.Sprintf("Figure 13: KW model predictions on %s (normalized to measured)", r.Curve.GPU), r.Curve)
	rows := [][]string{{"GPU", "KW average error"}}
	for _, g := range MainGPUs() {
		rows = append(rows, []string{g.Name, fmt.Sprintf("%.3f", r.PerGPUError[g.Name])})
	}
	rows = append(rows,
		[]string{"transformers (" + r.Curve.GPU + ")", fmt.Sprintf("%.3f", r.TransformerError)},
		[]string{"kernels → models", fmt.Sprintf("%d → %d", r.KernelCount, r.ModelCount)})
	return out + "\n" + renderTable("Figure 13 (cont.): KW error per GPU and extensions", rows)
}

// ---------------------------------------------------------------- Table 2

// Table2Row is one batch-size row of Table 2.
type Table2Row struct {
	BatchSize int
	// KWErrorPct is our measured KW error for ResNet-50 on V100.
	KWErrorPct float64
	// KWSeconds is the wall-clock time to train the KW model and produce
	// the prediction. It differs from run to run, so Render leaves it out.
	KWSeconds float64
	// Published baselines from the PKA paper, as reproduced in Table 2.
	PKSErrorPct, PKAErrorPct float64
	PKSHours, PKAHours       float64
}

// Table2Result compares the KW model against Principal Kernel Selection /
// Analysis on ResNet-50 / V100.
type Table2Result struct {
	Rows []Table2Row
}

// table2Published holds the PKS/PKA columns, taken (as the paper itself
// does) from the Principal Kernel Analysis publication.
var table2Published = map[int]struct {
	pksErr, pkaErr, pksHours, pkaHours float64
}{
	64:  {6.4, 18, 10, 1.3},
	128: {3.5, 12, 8, 1.5},
	256: {2.2, 24, 18, 1.6},
}

// Table2 trains the KW model on V100 (excluding ResNet-50, the network under
// test) and predicts ResNet-50 at batch sizes 64/128/256.
func Table2(l *Lab) (*Table2Result, error) {
	const target = "resnet50"
	ds, err := l.Dataset(gpu.V100)
	if err != nil {
		return nil, err
	}
	// Hold out the network under test.
	keep := map[string]bool{}
	for _, n := range ds.NetworkNames() {
		keep[n] = n != target
	}
	train := ds.FilterNetworks(keep)

	net, err := l.Network(target)
	if err != nil {
		return nil, err
	}
	batches := []int{64, 128, 256}
	meas, err := l.Sweep([]string{target}, []gpu.Spec{gpu.V100}, batches)
	if err != nil {
		return nil, err
	}

	res := &Table2Result{}
	for _, bs := range batches {
		start := time.Now()
		m, err := core.FitKW(train, gpu.V100.Name, TrainBatch)
		if err != nil {
			return nil, err
		}
		pred, err := m.PredictNetwork(net, bs)
		if err != nil {
			return nil, err
		}
		elapsed := time.Since(start).Seconds()

		var measured units.Seconds
		for _, r := range meas.Networks {
			if r.BatchSize == bs {
				measured = r.E2ESeconds
			}
		}
		if measured == 0 {
			return nil, fmt.Errorf("bench: table 2: no measurement at BS=%d", bs)
		}
		pub := table2Published[bs]
		res.Rows = append(res.Rows, Table2Row{
			BatchSize:   bs,
			KWErrorPct:  100 * (core.Eval{Predicted: pred, Measured: measured}).RelError(),
			KWSeconds:   elapsed,
			PKSErrorPct: pub.pksErr, PKAErrorPct: pub.pkaErr,
			PKSHours: pub.pksHours, PKAHours: pub.pkaHours,
		})
	}
	return res, nil
}

// Render implements the result-rendering convention.
func (r *Table2Result) Render() string {
	rows := [][]string{{"Batch Size", "KW err %", "PKS err %", "PKA err %", "PKS time (h)", "PKA time (h)"}}
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%d", row.BatchSize),
			fmt.Sprintf("%.1f", row.KWErrorPct),
			fmt.Sprintf("%.1f", row.PKSErrorPct),
			fmt.Sprintf("%.1f", row.PKAErrorPct),
			fmt.Sprintf("%.1f", row.PKSHours),
			fmt.Sprintf("%.1f", row.PKAHours),
		})
	}
	return renderTable("Table 2: ResNet-50 on V100 — KW vs PKS/PKA (PKS/PKA columns as published)", rows)
}

// ---------------------------------------------------------------- Figure 14

// Figure14Result is the inter-GPU S-curve on the unseen TITAN RTX.
type Figure14Result struct {
	Curve SCurve
	// TrainGPUs are the measurement sources.
	TrainGPUs []string
	// Within10 is the fraction of networks predicted within 10% (the paper:
	// "about half of the models with an error of less than 10%").
	Within10 float64
}

// Figure14 trains the IGKW model on A100 + A40 + GTX 1080 Ti and predicts
// every network on TITAN RTX, which contributes no training measurements.
func Figure14(l *Lab) (*Figure14Result, error) {
	trainGPUs := []gpu.Spec{gpu.A100, gpu.A40, gpu.GTX1080Ti}
	target := gpu.TitanRTX

	// One collection pass covers the training GPUs and the target, whose
	// records are used for evaluation only.
	ds, err := l.Dataset(append(trainGPUs, target)...)
	if err != nil {
		return nil, err
	}
	base, err := l.IGKWBase(trainGPUs...)
	if err != nil {
		return nil, err
	}
	m, err := base.Resolve(target)
	if err != nil {
		return nil, err
	}

	// The model is resolved for the target, so evaluation reads only the
	// target's records.
	evals, err := l.evalOnTest(m, ds, dnn.TaskImageClassification)
	if err != nil {
		return nil, err
	}
	res := &Figure14Result{
		Curve:    newSCurve("IGKW", target.Name, evals),
		Within10: core.FractionWithin(evals, 0.10),
	}
	for _, g := range trainGPUs {
		res.TrainGPUs = append(res.TrainGPUs, g.Name)
	}
	return res, nil
}

// Render implements the result-rendering convention.
func (r *Figure14Result) Render() string {
	out := renderSCurve(fmt.Sprintf("Figure 14: IGKW predictions on unseen %s (trained on %v)",
		r.Curve.GPU, r.TrainGPUs), r.Curve)
	rows := [][]string{{"metric", "value"}}
	rows = append(rows, []string{"networks within 10% error", fmt.Sprintf("%.0f%%", r.Within10*100)})
	return out + "\n" + renderTable("Figure 14 (cont.)", rows)
}
