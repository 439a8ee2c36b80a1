package bench

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/gpu"
)

// sharedLab lazily builds one quick lab reused by every bench test (dataset
// collection dominates the cost; the cache makes the suite fast).
var (
	labOnce sync.Once
	lab     *Lab
)

func quickLab(tb testing.TB) *Lab {
	tb.Helper()
	labOnce.Do(func() { lab = NewQuickLab() })
	return lab
}

func TestTable1(t *testing.T) {
	r := Table1()
	if len(r.GPUs) != 7 {
		t.Fatalf("%d GPUs", len(r.GPUs))
	}
	out := r.Render()
	for _, name := range []string{"A100", "TITAN RTX", "Quadro P620"} {
		if !strings.Contains(out, name) {
			t.Fatalf("render missing %q:\n%s", name, out)
		}
	}
}

func TestFigure3(t *testing.T) {
	r, err := Figure3(quickLab(t), gpu.A100)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) < 100 {
		t.Fatalf("only %d points", len(r.Points))
	}
	// O1: the trend is linear on log-log axes…
	if r.LogLogFit.Slope < 0.5 || r.LogLogFit.Slope > 1.3 {
		t.Fatalf("log-log slope = %v", r.LogLogFit.Slope)
	}
	if r.LogLogFit.R2 < 0.7 {
		t.Fatalf("log-log R² = %v", r.LogLogFit.R2)
	}
	// …with a band roughly an order of magnitude wide…
	if r.BandRatio < 3 || r.BandRatio > 40 {
		t.Fatalf("band ratio = %v", r.BandRatio)
	}
	// …and inefficiency at small operation counts.
	if r.SmallFLOPsInefficiency < 1.5 {
		t.Fatalf("small-FLOPs inefficiency = %v", r.SmallFLOPsInefficiency)
	}
}

func TestFigure4(t *testing.T) {
	r, err := Figure4(quickLab(t), gpu.A100)
	if err != nil {
		t.Fatal(err)
	}
	// O2: the two families fall on *different* lines, with the GPU more
	// efficient on VGG.
	if r.SlopeRatioRvsV < 1.1 {
		t.Fatalf("ResNet/VGG slope ratio = %v, want > 1.1", r.SlopeRatioRvsV)
	}
	if r.ResNet.Fit.R2 < 0.9 || r.VGG.Fit.R2 < 0.8 {
		t.Fatalf("per-family R²: %v / %v", r.ResNet.Fit.R2, r.VGG.Fit.R2)
	}
}

func TestFigure5(t *testing.T) {
	r, err := Figure5(quickLab(t), gpu.A100)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 3 {
		t.Fatalf("%d series", len(r.Series))
	}
	slopes := map[string]float64{}
	for _, s := range r.Series {
		// O3: time is linear in batch size…
		if s.Fit.R2 < 0.98 {
			t.Fatalf("%s: batch fit R² = %v", s.Network, s.Fit.R2)
		}
		if s.Fit.Slope <= 0 {
			t.Fatalf("%s: slope = %v", s.Network, s.Fit.Slope)
		}
		slopes[s.Network] = s.Fit.Slope
	}
	// …with per-network slopes: VGG-16 costs the most per image,
	// MobileNetV2 the least.
	if !(slopes["vgg16"] > slopes["resnet50"] && slopes["resnet50"] > slopes["mobilenet_v2"]) {
		t.Fatalf("slope ordering: %v", slopes)
	}
}

func TestFigure6(t *testing.T) {
	r, err := Figure6(quickLab(t), gpu.A100)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range r.Series {
		// Achieved TFLOPS must rise from small to fully-utilizing batches.
		if r.SaturationRatio[i] <= 1.05 {
			t.Fatalf("%s: saturation ratio = %v", s.Network, r.SaturationRatio[i])
		}
		// And flatten at the top: the last two points stay within 15 %.
		n := len(s.Value)
		last, prev := s.Value[n-1], s.Value[n-2]
		if last/prev > 1.15 || prev/last > 1.15 {
			t.Fatalf("%s: no saturation at large batch (%v vs %v)", s.Network, prev, last)
		}
	}
}

func TestFigure7(t *testing.T) {
	r, err := Figure7(quickLab(t), gpu.A100)
	if err != nil {
		t.Fatal(err)
	}
	eff := map[string]float64{}
	for _, tr := range r.Trends {
		eff[string(tr.Kind)] = tr.GFLOPSPerSec
		if tr.N < 10 {
			t.Fatalf("%s: only %d layers", tr.Kind, tr.N)
		}
	}
	// O4: CONV and FC run far more efficiently than BN and Pooling.
	if !(eff["Conv2D"] > 5*eff["BatchNorm"] && eff["Linear"] > 5*eff["MaxPool"]) {
		t.Fatalf("layer-type efficiency ordering: %v", eff)
	}
}

func TestFigure8(t *testing.T) {
	r, err := Figure8(quickLab(t), gpu.A100)
	if err != nil {
		t.Fatal(err)
	}
	if r.TotalKernels < 25 {
		t.Fatalf("classified %d kernels", r.TotalKernels)
	}
	for _, c := range r.Classes {
		if c.Kernels == 0 {
			t.Fatalf("class %s empty", c.Class)
		}
		// O5: classification amplifies the linear relationship — the chosen
		// driver fits better than the alternatives.
		if c.MeanOwnR2 < 0.85 {
			t.Fatalf("%s: own R² = %v", c.Class, c.MeanOwnR2)
		}
		if c.MeanOwnR2 <= c.MeanOtherR2 {
			t.Fatalf("%s: own R² %v not above other drivers %v", c.Class, c.MeanOwnR2, c.MeanOtherR2)
		}
	}
}

func TestFigure9(t *testing.T) {
	r, err := Figure9(quickLab(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 6 {
		t.Fatalf("%d GPUs", len(r.Rows))
	}
	// O6: bandwidth efficiency is stable across GPUs, compute efficiency is
	// not.
	if r.BWSpread > 2.0 {
		t.Fatalf("BW efficiency spread = %v, want stable", r.BWSpread)
	}
	if r.ComputeSpread < 1.8*r.BWSpread {
		t.Fatalf("compute spread %v should exceed BW spread %v", r.ComputeSpread, r.BWSpread)
	}
}

func TestFigures11To13Ordering(t *testing.T) {
	l := quickLab(t)
	f11, err := Figure11(l, gpu.A100)
	if err != nil {
		t.Fatal(err)
	}
	f12, err := Figure12(l, gpu.A100)
	if err != nil {
		t.Fatal(err)
	}
	f13, err := Figure13(l, gpu.A100)
	if err != nil {
		t.Fatal(err)
	}
	e2e, lw, kw := f11.Curve.MeanError, f12.Curve.MeanError, f13.Curve.MeanError
	t.Logf("E2E=%.3f LW=%.3f KW=%.3f", e2e, lw, kw)
	// The paper's central result: each refinement cuts the error,
	// dramatically so at the kernel level.
	if !(kw < lw && lw < e2e) {
		t.Fatalf("ordering violated: E2E=%.3f LW=%.3f KW=%.3f", e2e, lw, kw)
	}
	if kw > 0.12 {
		t.Fatalf("KW error %v outside the paper's regime", kw)
	}
	// Kernel grouping: fewer models than kernels.
	if f13.ModelCount >= f13.KernelCount {
		t.Fatalf("grouping: %d kernels → %d models", f13.KernelCount, f13.ModelCount)
	}
	// KW works across GPUs in a narrow error band.
	for g, e := range f13.PerGPUError {
		if e > 0.15 {
			t.Fatalf("KW on %s: error %v", g, e)
		}
	}
	// Transformer extension stays accurate.
	if f13.TransformerError > 0.25 {
		t.Fatalf("transformer error = %v", f13.TransformerError)
	}
	// The KW S-curve is asymmetric: the low tail does not underestimate
	// badly ("we almost do not underestimate the execution time").
	if f13.Curve.Percentiles[0] < 0.75 {
		t.Fatalf("KW underestimates: P0 = %v", f13.Curve.Percentiles[0])
	}
}

func TestTable2(t *testing.T) {
	r, err := Table2(quickLab(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	for _, row := range r.Rows {
		// The KW model runs in seconds — the PKS/PKA baselines take hours.
		if row.KWSeconds > 60 {
			t.Fatalf("BS=%d: KW took %v s", row.BatchSize, row.KWSeconds)
		}
		// And it beats the published PKA error at every batch size.
		if row.KWErrorPct >= row.PKAErrorPct {
			t.Fatalf("BS=%d: KW %.1f%% not below PKA %.1f%%", row.BatchSize, row.KWErrorPct, row.PKAErrorPct)
		}
	}
}

func TestFigure14(t *testing.T) {
	r, err := Figure14(quickLab(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.TrainGPUs) != 3 {
		t.Fatalf("train GPUs = %v", r.TrainGPUs)
	}
	for _, g := range r.TrainGPUs {
		if g == "TITAN RTX" {
			t.Fatal("the target GPU leaked into the training set")
		}
	}
	// Predicting an unseen GPU costs accuracy versus same-GPU KW, but stays
	// in the paper's regime.
	if r.Curve.MeanError > 0.30 {
		t.Fatalf("IGKW error = %v", r.Curve.MeanError)
	}
	if r.Within10 < 0.15 {
		t.Fatalf("within-10%% fraction = %v", r.Within10)
	}
}

func TestFigure15And16(t *testing.T) {
	l := quickLab(t)
	f15, err := Figure15(l)
	if err != nil {
		t.Fatal(err)
	}
	f16, err := Figure16(l)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*BandwidthDSEResult{f15, f16} {
		if len(r.Points) != 13 {
			t.Fatalf("%s: %d sweep points", r.Figure, len(r.Points))
		}
		// More bandwidth never hurts, and the curve flattens: the first
		// 100 GB/s step buys a much larger relative gain than the last.
		for i := 1; i < len(r.Points); i++ {
			if r.Points[i].PredictedMs > r.Points[i-1].PredictedMs {
				t.Fatalf("%s: time increased with bandwidth at %v GB/s",
					r.Figure, r.Points[i].BandwidthGBps)
			}
		}
		firstGain := r.Points[0].PredictedMs / r.Points[1].PredictedMs
		lastGain := r.Points[len(r.Points)-2].PredictedMs / r.Points[len(r.Points)-1].PredictedMs
		if firstGain < 1.15*lastGain {
			t.Fatalf("%s: no diminishing returns (first %v, last %v)", r.Figure, firstGain, lastGain)
		}
		if total := r.Points[0].PredictedMs / r.Points[len(r.Points)-1].PredictedMs; total < 2 {
			t.Fatalf("%s: bandwidth barely matters (%vx end to end)", r.Figure, total)
		}
		if r.IdealLowGBps <= 0 || r.IdealHighGBps < r.IdealLowGBps {
			t.Fatalf("%s: ideal range %v–%v", r.Figure, r.IdealLowGBps, r.IdealHighGBps)
		}
	}
}

func TestFigure17(t *testing.T) {
	r, err := Figure17(quickLab(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 5 {
		t.Fatalf("%d series", len(r.Series))
	}
	requirements := map[float64]bool{}
	for _, s := range r.Series {
		if s.Speedups[0] != 1 {
			t.Fatalf("%s: baseline speedup = %v", s.Network, s.Speedups[0])
		}
		for i := 1; i < len(s.Speedups); i++ {
			if s.Speedups[i] < s.Speedups[i-1]-1e-9 {
				t.Fatalf("%s: speedup not monotone", s.Network)
			}
		}
		top := s.Speedups[len(s.Speedups)-1]
		if top < 1.3 || top > 6 {
			t.Fatalf("%s: top speedup %v outside the case study's regime", s.Network, top)
		}
		requirements[s.RequiredGBps] = true
	}
	// "Different networks have different network bandwidth requirements."
	if len(requirements) < 2 {
		t.Fatalf("all networks share one bandwidth requirement: %v", requirements)
	}
}

func TestFigure18(t *testing.T) {
	r, err := Figure18(quickLab(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 6 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	// The paper: the model selects the faster GPU for every network.
	if r.Correct != len(r.Rows) {
		t.Fatalf("correct choices = %d/%d", r.Correct, len(r.Rows))
	}
	for _, row := range r.Rows {
		for _, g := range []string{"A40", "TITAN RTX"} {
			meas, pred := row.MeasuredMs[g], row.PredictedMs[g]
			if pred < meas*0.7 || pred > meas*1.4 {
				t.Fatalf("%s on %s: pred %v vs meas %v", row.Network, g, pred, meas)
			}
		}
	}
}

func TestFigure19(t *testing.T) {
	r, err := Figure19(quickLab(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Assignment.GPUOf) != 9 {
		t.Fatalf("assignment covers %d networks", len(r.Assignment.GPUOf))
	}
	// Both GPUs must be used (the queue cannot fit one GPU optimally).
	used := map[int32]bool{}
	for _, g := range r.Assignment.GPUOf {
		used[g] = true
	}
	if len(used) != 2 {
		t.Fatalf("assignment uses %d GPUs", len(used))
	}
	// The model's schedule lands within 2 % of the measured-time oracle
	// (the paper reports an identical schedule).
	if r.AchievedMakespan > r.OracleMakespan*1.02 {
		t.Fatalf("achieved %v vs oracle %v", r.AchievedMakespan, r.OracleMakespan)
	}
}
