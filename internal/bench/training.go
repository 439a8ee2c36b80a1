package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dnn"
	"repro/internal/gpu"
)

// TrainingBatch is the fully-utilizing batch size of the training-workload
// extension: training retains every activation for the backward pass, so
// the memory ceiling sits far below inference's 512.
const TrainingBatch = 64

// TrainingExtensionResult evaluates the paper's future-work direction
// ("extending our models for more diverse workloads (e.g., training)", §9):
// the same kernel-wise methodology applied to full training steps
// (forward + backward + optimizer kernels).
type TrainingExtensionResult struct {
	GPU string
	// Curve is the training-mode KW S-curve on held-out networks.
	Curve SCurve
	// InferenceError is the inference-mode KW error at the same batch size,
	// for comparison.
	InferenceError float64
	// KernelCount / ModelCount describe the training-step kernel vocabulary
	// (roughly double inference: every family gains backward variants).
	KernelCount, ModelCount int
	// StepOverFwd is the mean measured training-step / inference-step time
	// ratio (the classic ≈3× of forward+backward+update).
	StepOverFwd float64
	// OOMDropped counts runs removed for exceeding training-mode memory.
	OOMDropped int
}

// TrainingExtension collects a training-mode dataset on the GPU, fits a
// training-mode KW model, and evaluates it on held-out networks.
func TrainingExtension(l *Lab, g gpu.Spec) (*TrainingExtensionResult, error) {
	opt := dataset.DefaultBuildOptions()
	opt.Batches = l.batches
	opt.Warmup = l.warmup
	opt.E2EBatchSizes = []int{TrainingBatch}
	opt.DetailBatchSize = TrainingBatch
	opt.Training = true
	trainDS, report, err := dataset.Build(l.nets, []gpu.Spec{g}, opt)
	if err != nil {
		return nil, err
	}

	// Matching inference-mode dataset at the same batch size.
	opt.Training = false
	inferDS, _, err := dataset.Build(l.nets, []gpu.Spec{g}, opt)
	if err != nil {
		return nil, err
	}

	res := &TrainingExtensionResult{GPU: g.Name, OOMDropped: len(report.OutOfMemory)}

	// Step-time ratio over networks present in both datasets.
	inferE2E := map[string]float64{}
	for _, r := range inferDS.Networks {
		if r.BatchSize == TrainingBatch {
			inferE2E[r.Network] = float64(r.E2ESeconds)
		}
	}
	var ratios []float64
	for _, r := range trainDS.Networks {
		if r.BatchSize == TrainingBatch && inferE2E[r.Network] > 0 {
			ratios = append(ratios, float64(r.E2ESeconds)/inferE2E[r.Network])
		}
	}
	if len(ratios) == 0 {
		return nil, fmt.Errorf("bench: training extension: no comparable runs")
	}
	var sum float64
	for _, x := range ratios {
		sum += x
	}
	res.StepOverFwd = sum / float64(len(ratios))

	// Train and evaluate the training-mode KW model.
	train, test := l.Split(trainDS)
	kw, err := core.FitKWOptions(train, g.Name, TrainingBatch, core.KWOptions{Training: true})
	if err != nil {
		return nil, err
	}
	res.KernelCount, res.ModelCount = kw.KernelCount(), kw.ModelCount()

	evals, err := l.evalAt(kw, test, dnn.TaskImageClassification, TrainingBatch)
	if err != nil {
		return nil, err
	}
	res.Curve = newSCurve("KW-training", g.Name, evals)

	// Inference-mode baseline at the same batch size.
	iTrain, iTest := l.Split(inferDS)
	ikw, err := core.FitKW(iTrain, g.Name, TrainingBatch)
	if err != nil {
		return nil, err
	}
	iEvals, err := l.evalAt(ikw, iTest, dnn.TaskImageClassification, TrainingBatch)
	if err != nil {
		return nil, err
	}
	res.InferenceError = core.MeanRelError(iEvals)
	return res, nil
}

// Render implements the result-rendering convention.
func (r *TrainingExtensionResult) Render() string {
	out := renderSCurve(fmt.Sprintf("Training extension: KW on training steps (%s, BS=%d)",
		r.GPU, TrainingBatch), r.Curve)
	rows := [][]string{{"metric", "value"}}
	rows = append(rows,
		[]string{"inference-mode KW error (same batch)", fmt.Sprintf("%.3f", r.InferenceError)},
		[]string{"mean training-step / inference-step time", fmt.Sprintf("%.2f×", r.StepOverFwd)},
		[]string{"kernels → models", fmt.Sprintf("%d → %d", r.KernelCount, r.ModelCount)},
		[]string{"OOM runs dropped", fmt.Sprintf("%d", r.OOMDropped)})
	return out + "\n" + renderTable("Training extension (cont.)", rows)
}
