package bench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/gpu"
)

// osStat returns the size of dir/name.
func osStat(dir, name string) (int64, error) {
	info, err := os.Stat(filepath.Join(dir, name))
	if err != nil {
		return 0, err
	}
	return info.Size(), nil
}

func TestAblation(t *testing.T) {
	r, err := Ablation(quickLab(t), gpu.A100)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 6 {
		t.Fatalf("%d variants", len(r.Rows))
	}
	byName := map[string]AblationRow{}
	for _, row := range r.Rows {
		byName[row.Variant] = row
		if row.MeanError <= 0 {
			t.Fatalf("%s: error %v", row.Variant, row.MeanError)
		}
	}
	full := r.Rows[0]
	if !strings.HasPrefix(full.Variant, "full KW") {
		t.Fatalf("first row = %q", full.Variant)
	}
	// The classification step is the load-bearing design choice: every
	// forced-single-driver variant must be clearly worse than the full
	// design.
	for _, row := range r.Rows {
		if strings.Contains(row.Variant, "no classification") &&
			row.MeanError < 2*full.MeanError {
			t.Fatalf("%s (%.3f) not clearly worse than full (%.3f)",
				row.Variant, row.MeanError, full.MeanError)
		}
	}
	// Ungrouped models: more regressions, similar error.
	ungrouped := byName["no grouping (one model per kernel)"]
	if ungrouped.Models <= full.Models {
		t.Fatalf("ungrouped should keep more models: %d vs %d", ungrouped.Models, full.Models)
	}
	if ungrouped.MeanError > 3*full.MeanError {
		t.Fatalf("ungrouped error implausibly bad: %.3f", ungrouped.MeanError)
	}
}

func TestTrainingExtension(t *testing.T) {
	r, err := TrainingExtension(quickLab(t), gpu.A100)
	if err != nil {
		t.Fatal(err)
	}
	// The KW methodology extends to training steps with error in the same
	// regime as inference.
	if r.Curve.MeanError > 0.15 {
		t.Fatalf("training-mode KW error = %v", r.Curve.MeanError)
	}
	// A training step costs roughly forward + dgrad + wgrad + updates.
	if r.StepOverFwd < 1.8 || r.StepOverFwd > 4.5 {
		t.Fatalf("step/forward ratio = %v", r.StepOverFwd)
	}
	// The kernel vocabulary roughly doubles with the backward variants.
	if r.KernelCount < 60 {
		t.Fatalf("training kernel vocabulary = %d", r.KernelCount)
	}
	if r.ModelCount >= r.KernelCount {
		t.Fatal("grouping should still compress the training vocabulary")
	}
}

func TestMIGExtension(t *testing.T) {
	r, err := MIGExtension(quickLab(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != len(migNets)*4 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	for _, net := range migNets {
		if r.BestProfile[net] == "" {
			t.Fatalf("no best slicing for %s", net)
		}
	}
	for _, row := range r.Rows {
		if row.BestBatch == 0 {
			continue // OOM on this slice is a legitimate outcome
		}
		if row.Throughput <= 0 || row.LatencyMs <= 0 {
			t.Fatalf("%s/%s: throughput %v latency %v",
				row.Network, row.Profile, row.Throughput, row.LatencyMs)
		}
		// Smaller slices must never allow larger per-instance batches than
		// memory permits; implied by BestBatch>0 checks plus monotone
		// latency: a slice with 1/7 of the bandwidth cannot be faster than
		// the whole GPU at the same batch.
	}
	// The whole-GPU slice must fit the largest batch for every network.
	for _, row := range r.Rows {
		if row.Profile == "7g.40gb" && row.BestBatch == 0 {
			t.Fatalf("%s does not fit the whole A100", row.Network)
		}
	}
}

func TestSmallBatchExperiment(t *testing.T) {
	r, err := SmallBatch(quickLab(t), gpu.A100)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) < 2 {
		t.Fatalf("%d batch sizes", len(r.Rows))
	}
	// Errors grow as the batch shrinks away from the training point…
	first, last := r.Rows[0], r.Rows[len(r.Rows)-1]
	if first.BatchSize >= last.BatchSize {
		t.Fatal("rows not sorted by batch")
	}
	if first.RawError <= last.RawError {
		t.Fatalf("raw KW should degrade at small batch: %v vs %v", first.RawError, last.RawError)
	}
	// …and the learned correction recovers a large part of the loss.
	if first.CorrectedError >= first.RawError*0.7 {
		t.Fatalf("correction too weak at batch %d: %.3f vs %.3f",
			first.BatchSize, first.CorrectedError, first.RawError)
	}
}

func TestUncertainty(t *testing.T) {
	r, err := Uncertainty(quickLab(t), gpu.A100)
	if err != nil {
		t.Fatal(err)
	}
	if r.Networks < 5 {
		t.Fatalf("only %d networks", r.Networks)
	}
	// ±2σ should cover most held-out kernel totals without being vacuous.
	if r.Coverage < 0.6 {
		t.Fatalf("coverage = %v", r.Coverage)
	}
	if r.MeanRelMargin <= 0 || r.MeanRelMargin > 2 {
		t.Fatalf("mean relative margin = %v", r.MeanRelMargin)
	}
}

func TestExport(t *testing.T) {
	dir := t.TempDir()
	if err := Export(quickLab(t), dir); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"fig3_points.csv", "fig11_ratios.csv", "fig12_ratios.csv",
		"fig13_ratios.csv", "fig14_ratios.csv", "fig15_curve.csv", "fig16_curve.csv",
		"fig17_speedups.csv"} {
		info, err := osStat(dir, f)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if info <= 40 {
			t.Fatalf("%s: suspiciously small (%d bytes)", f, info)
		}
	}
}

func TestRobustness(t *testing.T) {
	r, err := Robustness(quickLab(t), gpu.A100, []int64{0, 7, 13})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.KW) != 3 {
		t.Fatalf("%d universes", len(r.KW))
	}
	// The reproduction's central claim must not be a seed artifact.
	if !r.OrderingHolds {
		t.Fatalf("model ordering broke in some universe: E2E=%v LW=%v KW=%v",
			r.E2E, r.LW, r.KW)
	}
	for i, kw := range r.KW {
		if kw > 0.12 {
			t.Fatalf("seed %d: KW error %v outside the paper's regime", r.Seeds[i], kw)
		}
	}
}

func TestOnlineLearning(t *testing.T) {
	l := quickLab(t)
	r, err := OnlineLearning(l, gpu.A100)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Steps) < 3 {
		t.Fatalf("%d steps", len(r.Steps))
	}
	first, last := r.Steps[0], r.Steps[len(r.Steps)-1]
	// Streaming deployment measurements must improve the deployed model.
	if last.KWError >= first.KWError {
		t.Fatalf("online learning did not improve: %.3f → %.3f", first.KWError, last.KWError)
	}
	if last.KWError > 0.12 {
		t.Fatalf("converged error %.3f outside the KW regime", last.KWError)
	}
	// The model keeps growing as unseen kernels appear in the stream.
	if last.Kernels < first.Kernels {
		t.Fatalf("kernel count shrank: %d → %d", first.Kernels, last.Kernels)
	}
	if last.ObservedNetworks <= first.ObservedNetworks {
		t.Fatal("streaming did not advance")
	}
	// Having observed every training network, the deployed model is the one
	// fitted on the whole training split: same held-out error to the bit.
	ds, err := l.Dataset(gpu.A100)
	if err != nil {
		t.Fatal(err)
	}
	train, test := l.Split(ds)
	kw, err := core.FitKW(train, gpu.A100.Name, TrainBatch)
	if err != nil {
		t.Fatal(err)
	}
	evals, err := l.evalOnTest(kw, test, dnn.TaskImageClassification)
	if err != nil {
		t.Fatal(err)
	}
	if want := core.MeanRelError(evals); last.KWError != want {
		t.Fatalf("last online step error %v, fit on the training split %v", last.KWError, want)
	}
}
