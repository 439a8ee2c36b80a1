package core

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/dnn"
	"repro/internal/gpu"
	"repro/internal/units"
	"repro/internal/zoo"
)

// syntheticE2EDataset builds network records lying exactly on a planted
// FLOPs→time line.
func syntheticE2EDataset(gpuName string, slope, intercept float64) *dataset.Dataset {
	ds := &dataset.Dataset{}
	for i := 1; i <= 40; i++ {
		flops := int64(i) * 1e9
		ds.Networks = append(ds.Networks, dataset.NetworkRecord{
			Network: "net" + string(rune('a'+i%26)) + string(rune('a'+i/26)),
			Family:  "F", Task: string(dnn.TaskImageClassification),
			GPU: gpuName, BatchSize: 512,
			TotalFLOPs: units.FLOPs(flops),
			E2ESeconds: units.Seconds(slope*float64(flops) + intercept),
		})
	}
	return ds
}

func TestE2EModelRecoversLine(t *testing.T) {
	ds := syntheticE2EDataset("A100", 2e-12, 5e-3)
	m, err := FitE2E(ds, "A100", 512)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Line.Slope-2e-12)/2e-12 > 1e-9 {
		t.Fatalf("slope = %v", m.Line.Slope)
	}
	want := 2e-12*50e9 + 5e-3
	if got := float64(m.PredictFLOPs(50e9)); math.Abs(got-want)/want > 1e-9 {
		t.Fatalf("PredictFLOPs = %v, want %v", got, want)
	}
	if m.Name() != "E2E" || m.GPUName() != "A100" {
		t.Fatal("identity accessors wrong")
	}
}

func TestE2EModelNeverNegative(t *testing.T) {
	// A negative-intercept fit must clamp tiny predictions at > 0.
	ds := syntheticE2EDataset("A100", 2e-12, -1e-3)
	m, err := FitE2E(ds, "A100", 512)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.PredictFLOPs(1); got <= 0 {
		t.Fatalf("prediction %v must be positive", got)
	}
}

func TestFitE2EErrors(t *testing.T) {
	ds := syntheticE2EDataset("A100", 2e-12, 5e-3)
	if _, err := FitE2E(ds, "H100", 512); err == nil {
		t.Fatal("unknown GPU should error")
	}
	if _, err := FitE2E(ds, "A100", 64); err == nil {
		t.Fatal("missing batch size should error")
	}
}

func TestLWModelPerKindLines(t *testing.T) {
	ds := &dataset.Dataset{}
	// Conv layers at 2 ns/FLOP, BN layers at 10 ns/FLOP.
	for i := 1; i <= 30; i++ {
		ds.Layers = append(ds.Layers,
			dataset.LayerRecord{
				Network: "n", GPU: "A100", BatchSize: 512, LayerIndex: i,
				Kind: "Conv2D", FLOPs: units.FLOPs(i) * 1e6,
				Seconds: units.Seconds(2e-9 * float64(i) * 1e6),
			},
			dataset.LayerRecord{
				Network: "n", GPU: "A100", BatchSize: 512, LayerIndex: 100 + i,
				Kind: "BatchNorm", FLOPs: units.FLOPs(i) * 1e4,
				Seconds: units.Seconds(10e-9 * float64(i) * 1e4),
			})
	}
	m, err := FitLW(ds, "A100", 512)
	if err != nil {
		t.Fatal(err)
	}
	if got := float64(m.PredictLayer(dnn.KindConv2D, 1e6)); math.Abs(got-2e-3)/2e-3 > 1e-6 {
		t.Fatalf("conv prediction = %v", got)
	}
	if got := float64(m.PredictLayer(dnn.KindBatchNorm, 1e4)); math.Abs(got-1e-4)/1e-4 > 1e-6 {
		t.Fatalf("bn prediction = %v", got)
	}
	// Unknown kinds use the pooled fallback and stay positive.
	if got := m.PredictLayer(dnn.KindSoftmax, 1e5); got <= 0 {
		t.Fatalf("fallback prediction = %v", got)
	}
	kinds := m.KindsCovered()
	if len(kinds) != 2 {
		t.Fatalf("KindsCovered = %v", kinds)
	}
}

// plantKernelDataset builds a kernel-record dataset for one GPU where every
// kernel behaves exactly linearly in its driver; rates scale with the GPU's
// bandwidth, as the IGKW model assumes.
func plantKernelDataset(g gpu.Spec, nets int) *dataset.Dataset {
	ds := &dataset.Dataset{}
	bwScale := g.MemBWGBps * 1e9
	for n := 0; n < nets; n++ {
		netName := "net" + string(rune('A'+n))
		for i := 0; i < 30; i++ {
			flops := int64((i + 1) * (n + 2) * 1e6)
			in := int64((i + 1) * (n + 1) * 5e4)
			out := int64((i + 1) * (n + 3) * 3e4)
			add := func(kernel string, d Driver, ratePerBW float64) {
				var x float64
				switch d {
				case DriverInput:
					x = float64(in)
				case DriverOperation:
					x = float64(flops)
				default:
					x = float64(out)
				}
				ds.Kernels = append(ds.Kernels, dataset.KernelRecord{
					Network: netName, GPU: g.Name, BatchSize: 512,
					LayerIndex: i, LayerKind: "Conv2D",
					LayerSignature: "sig" + string(rune('0'+i%10)),
					Kernel:         kernel,
					LayerFLOPs:     units.FLOPs(flops), LayerInputElems: in, LayerOutputElems: out,
					Seconds: units.Seconds(x/(ratePerBW*bwScale) + 2e-6),
				})
			}
			add("pre_transform", DriverInput, 0.05) // 0.05 elems/s per B/s of bandwidth
			add("main_gemm_64x64", DriverOperation, 0.5)
			add("post_transform", DriverOutput, 0.08)
		}
	}
	return ds
}

func TestKWModelOnPlantedData(t *testing.T) {
	ds := plantKernelDataset(gpu.A100, 4)
	m, err := FitKW(ds, "A100", 512)
	if err != nil {
		t.Fatal(err)
	}
	if m.KernelCount() != 3 {
		t.Fatalf("kernels = %d", m.KernelCount())
	}
	// Per-kernel prediction reproduces the planted law.
	bw := gpu.A100.MemBWGBps * 1e9
	got := float64(m.PredictKernel("main_gemm_64x64", 1e8, 1, 1))
	want := 1e8/(0.5*bw) + 2e-6
	if math.Abs(got-want)/want > 0.02 {
		t.Fatalf("kernel prediction = %v, want %v", got, want)
	}
	// PredictRecords sums the regressions over the record list.
	var sum float64
	for _, r := range ds.Kernels[:90] { // one network's records
		sum += float64(r.Seconds)
	}
	pred := float64(m.PredictRecords(ds.Kernels[:90]))
	if math.Abs(pred-sum)/sum > 0.02 {
		t.Fatalf("PredictRecords = %v, want ≈ %v", pred, sum)
	}
}

func TestKWModelFallbackHierarchy(t *testing.T) {
	ds := plantKernelDataset(gpu.A100, 4)
	m, err := FitKW(ds, "A100", 512)
	if err != nil {
		t.Fatal(err)
	}
	// Unseen tile variant of a known family → family fallback, close to the
	// family's behaviour.
	got := float64(m.PredictKernel("main_gemm_128x128", 1e8, 1, 1))
	bw := gpu.A100.MemBWGBps * 1e9
	want := 1e8/(0.5*bw) + 2e-6
	if math.Abs(got-want)/want > 0.05 {
		t.Fatalf("family fallback = %v, want ≈ %v", got, want)
	}
	// Entirely unknown kernel with FLOPs → operation-class fallback.
	if got := m.PredictKernel("mystery_kernel", 1e8, 5e5, 5e5); got <= 0 {
		t.Fatalf("class fallback = %v", got)
	}
	// Zero-FLOPs unknown kernel → output-class fallback.
	if got := m.PredictKernel("mystery_copy", 0, 5e5, 5e5); got <= 0 {
		t.Fatalf("output fallback = %v", got)
	}
}

func TestIGKWRecoversBandwidthScaling(t *testing.T) {
	// Train on three GPUs whose kernel rates scale exactly with bandwidth;
	// the IGKW model must then predict a fourth GPU near-perfectly.
	ds := &dataset.Dataset{}
	train := []gpu.Spec{gpu.A100, gpu.A40, gpu.GTX1080Ti}
	for _, g := range train {
		ds.Merge(plantKernelDataset(g, 4))
	}
	m, err := FitIGKW(ds, train, gpu.TitanRTX, 512)
	if err != nil {
		t.Fatal(err)
	}
	if m.GPUName() != "TITAN RTX" || m.Name() != "IGKW" {
		t.Fatal("identity accessors wrong")
	}
	target := plantKernelDataset(gpu.TitanRTX, 1)
	var want float64
	for _, r := range target.Kernels {
		want += float64(r.Seconds)
	}
	got := float64(m.PredictRecords(target.Kernels))
	if math.Abs(got-want)/want > 0.05 {
		t.Fatalf("IGKW prediction = %v, want ≈ %v", got, want)
	}
}

func TestIGKWNeedsTwoGPUs(t *testing.T) {
	ds := plantKernelDataset(gpu.A100, 2)
	if _, err := FitIGKW(ds, []gpu.Spec{gpu.A100}, gpu.TitanRTX, 512); err == nil {
		t.Fatal("single training GPU should error")
	}
}

func TestResolveRateClamping(t *testing.T) {
	// Extrapolating far below the observed bandwidths must not produce a
	// negative or absurd rate.
	line, ok := resolveRate(
		[]float64{800, 1000, 1200},
		[]float64{100, 200, 300}, // strong positive trend, intercept −300
		[]float64{1e-6, 1e-6, 1e-6},
		10, // far below the observations
	)
	if !ok {
		t.Fatal("resolveRate failed")
	}
	if line.Slope <= 0 || math.IsInf(line.Slope, 0) {
		t.Fatalf("clamped slope = %v", line.Slope)
	}
}

func TestResolveRateSingleGPU(t *testing.T) {
	line, ok := resolveRate([]float64{500}, []float64{100}, []float64{2e-6}, 1000)
	if !ok {
		t.Fatal("single-point resolve failed")
	}
	// Proportional scaling: rate 200 at bw 1000 → slope 1/200.
	if math.Abs(line.Slope-1.0/200) > 1e-12 {
		t.Fatalf("slope = %v", line.Slope)
	}
	if line.Intercept != 2e-6 {
		t.Fatalf("intercept = %v", line.Intercept)
	}
}

func TestEvalMetrics(t *testing.T) {
	evals := []Eval{
		{Network: "a", Predicted: 11, Measured: 10}, // +10 %
		{Network: "b", Predicted: 8, Measured: 10},  // −20 %
		{Network: "c", Predicted: 10, Measured: 10}, // 0 %
	}
	if got := MeanRelError(evals); !ApproxEqual(got, 0.1, 1e-12) {
		t.Fatalf("MeanRelError = %v", got)
	}
	ratios := SortedRatios(evals)
	if ratios[0] != 0.8 || ratios[1] != 1.0 || ratios[2] != 1.1 {
		t.Fatalf("SortedRatios = %v", ratios)
	}
	if got := FractionWithin(evals, 0.10); !ApproxEqual(got, 2.0/3, 1e-12) {
		t.Fatalf("FractionWithin = %v", got)
	}
	if MeanRelError(nil) != 0 || FractionWithin(nil, 1) != 0 {
		t.Fatal("empty evals should give 0")
	}
	if !math.IsInf((Eval{Predicted: 1}).Ratio(), 1) {
		t.Fatal("zero measured should give +Inf ratio")
	}
}

// TestEndToEndPipeline is the integration test: build a small dataset
// through the real substrate, train all models, and verify the paper's
// qualitative ordering E2E > LW > KW on held-out networks.
func TestEndToEndPipeline(t *testing.T) {
	all := zoo.Full()
	var nets []*dnn.Network
	for i := 0; i < len(all); i += 4 {
		nets = append(nets, all[i])
	}
	byName := map[string]*dnn.Network{}
	for _, n := range nets {
		byName[n.Name] = n
	}
	opt := dataset.DefaultBuildOptions()
	opt.Batches = 8
	opt.Warmup = 2
	ds, _, err := dataset.Build(nets, []gpu.Spec{gpu.A100}, opt)
	if err != nil {
		t.Fatal(err)
	}
	train, test := ds.SplitByNetwork(0.15, 1)

	e2e, err := FitE2E(train, "A100", 512)
	if err != nil {
		t.Fatal(err)
	}
	lw, err := FitLW(train, "A100", 512)
	if err != nil {
		t.Fatal(err)
	}
	kw, err := FitKW(train, "A100", 512)
	if err != nil {
		t.Fatal(err)
	}
	if kw.ModelCount() >= kw.KernelCount() {
		t.Fatalf("grouping should reduce models: %d kernels → %d models",
			kw.KernelCount(), kw.ModelCount())
	}

	errs := map[string]float64{}
	for _, m := range []Predictor{e2e, lw, kw} {
		var evals []Eval
		for _, r := range test.Networks {
			if r.BatchSize != 512 || r.Task != string(dnn.TaskImageClassification) {
				continue
			}
			p, err := m.PredictNetwork(byName[r.Network], 512)
			if err != nil {
				t.Fatal(err)
			}
			evals = append(evals, Eval{Network: r.Network, Predicted: p, Measured: r.E2ESeconds})
		}
		if len(evals) < 5 {
			t.Fatalf("%s: only %d test networks", m.Name(), len(evals))
		}
		errs[m.Name()] = MeanRelError(evals)
	}
	t.Logf("errors: E2E=%.3f LW=%.3f KW=%.3f", errs["E2E"], errs["LW"], errs["KW"])
	if !(errs["KW"] < errs["LW"] && errs["LW"] < errs["E2E"]) {
		t.Fatalf("model ordering violated: %v", errs)
	}
	if errs["KW"] > 0.15 {
		t.Fatalf("KW error %v far above the paper's regime", errs["KW"])
	}
}

// TestKWPredictLayerTime checks the per-layer prediction used by the
// disaggregated-memory case study.
func TestKWPredictLayerTime(t *testing.T) {
	nets := []*dnn.Network{zoo.MustResNet(18), zoo.MustVGG(11, false)}
	opt := dataset.DefaultBuildOptions()
	opt.Batches = 3
	opt.Warmup = 1
	opt.E2EBatchSizes = []int{512}
	ds, _, err := dataset.Build(nets, []gpu.Spec{gpu.A100}, opt)
	if err != nil {
		t.Fatal(err)
	}
	kw, err := FitKW(ds, "A100", 512)
	if err != nil {
		t.Fatal(err)
	}
	net := zoo.MustResNet(18)
	if err := net.Infer(512); err != nil {
		t.Fatal(err)
	}
	var sum units.Seconds
	for _, l := range net.Layers {
		lt := kw.PredictLayerTime(l)
		if lt < 0 {
			t.Fatalf("negative layer time for %s", l.Name)
		}
		sum += lt
	}
	whole, err := kw.PredictNetwork(net, 512)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(sum-whole))/float64(whole) > 1e-9 {
		t.Fatalf("Σ layer predictions %v != network prediction %v", sum, whole)
	}
}
