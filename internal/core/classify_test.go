package core

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/units"
)

// plantRecords synthesizes kernel records whose duration is an exact linear
// function of the given driver, with distinct, uncorrelated values for the
// other two candidates so the classifier has a real decision to make.
func plantRecords(kernel string, d Driver, slope, intercept float64, n int, seed int64) []dataset.KernelRecord {
	rnd := rand.New(rand.NewSource(seed))
	recs := make([]dataset.KernelRecord, n)
	for i := range recs {
		flops := int64(rnd.Intn(1_000_000) + 1000)
		in := int64(rnd.Intn(1_000_000) + 1000)
		out := int64(rnd.Intn(1_000_000) + 1000)
		var x float64
		switch d {
		case DriverInput:
			x = float64(in)
		case DriverOperation:
			x = float64(flops)
		default:
			x = float64(out)
		}
		recs[i] = dataset.KernelRecord{
			Network: "synthetic", GPU: "G", BatchSize: 512,
			LayerIndex: i, LayerKind: "Conv2D", LayerSignature: "sig",
			Kernel:     kernel,
			LayerFLOPs: units.FLOPs(flops), LayerInputElems: in, LayerOutputElems: out,
			Seconds: units.Seconds(slope*x + intercept + rnd.NormFloat64()*intercept*0.01),
		}
	}
	return recs
}

func TestClassifyRecoversPlantedDrivers(t *testing.T) {
	var recs []dataset.KernelRecord
	recs = append(recs, plantRecords("pre_kernel", DriverInput, 2e-9, 1e-5, 200, 1)...)
	recs = append(recs, plantRecords("main_kernel", DriverOperation, 5e-9, 2e-5, 200, 2)...)
	recs = append(recs, plantRecords("post_kernel", DriverOutput, 3e-9, 1e-5, 200, 3)...)

	classif := ClassifyKernels(recs)
	if len(classif) != 3 {
		t.Fatalf("classified %d kernels", len(classif))
	}
	want := map[string]Driver{
		"pre_kernel":  DriverInput,
		"main_kernel": DriverOperation,
		"post_kernel": DriverOutput,
	}
	for k, d := range want {
		c, ok := classif[k]
		if !ok {
			t.Fatalf("kernel %q missing", k)
		}
		if c.Driver != d {
			t.Errorf("%s: classified as %s, want %s (R²: %v)", k, c.Driver, d, c.R2)
		}
		if c.R2[d] < 0.99 {
			t.Errorf("%s: winning R² = %v", k, c.R2[d])
		}
		if c.Line.Slope <= 0 {
			t.Errorf("%s: slope = %v", k, c.Line.Slope)
		}
		if c.N != 200 {
			t.Errorf("%s: N = %d", k, c.N)
		}
	}
}

func TestClassifyDegenerateKernel(t *testing.T) {
	// A kernel observed at a single problem size cannot support a line; it
	// must fall back to a constant-at-mean model rather than fail.
	recs := []dataset.KernelRecord{
		{Kernel: "const", LayerFLOPs: 100, LayerInputElems: 100, LayerOutputElems: 100, Seconds: 2e-5},
		{Kernel: "const", LayerFLOPs: 100, LayerInputElems: 100, LayerOutputElems: 100, Seconds: 4e-5},
	}
	classif := ClassifyKernels(recs)
	c := classif["const"]
	if c.Line.Slope != 0 {
		t.Fatalf("degenerate kernel slope = %v", c.Line.Slope)
	}
	if diff := c.Line.Intercept - 3e-5; diff > 1e-18 || diff < -1e-18 {
		t.Fatalf("degenerate kernel mean = %v", c.Line.Intercept)
	}
}

func TestClassifyPenalizesNegativeSlopes(t *testing.T) {
	// Duration increases with input but happens to decrease against output;
	// the classifier must not pick the physically meaningless negative fit
	// even if its |R²| is high.
	rnd := rand.New(rand.NewSource(4))
	var recs []dataset.KernelRecord
	for i := 0; i < 100; i++ {
		in := int64(1000 + i*100)
		recs = append(recs, dataset.KernelRecord{
			Kernel:     "anti",
			LayerFLOPs: units.FLOPs(rnd.Intn(1000) + 1),
			// Output is anti-correlated with input.
			LayerInputElems:  in,
			LayerOutputElems: 2_000_000 - in,
			Seconds:          units.Seconds(2e-9*float64(in) + 1e-6),
		})
	}
	c := ClassifyKernels(recs)["anti"]
	if c.Driver != DriverInput {
		t.Fatalf("classified as %s, want input (R²: %v)", c.Driver, c.R2)
	}
}

func TestGroupKernelsMergesSimilarSlopes(t *testing.T) {
	var recs []dataset.KernelRecord
	// Three input-driven kernels with nearly equal slopes and one far away.
	recs = append(recs, plantRecords("a", DriverInput, 1.00e-9, 1e-6, 100, 5)...)
	recs = append(recs, plantRecords("b", DriverInput, 1.10e-9, 1e-6, 100, 6)...)
	recs = append(recs, plantRecords("c", DriverInput, 1.25e-9, 1e-6, 100, 7)...)
	recs = append(recs, plantRecords("far", DriverInput, 50e-9, 1e-6, 100, 8)...)

	f := fitGPU(recs, every(len(recs)))
	groups, groupOf := groupKernels(f.kernels.classif, recs, f.kernels.index)
	if groupOf["a"] != groupOf["b"] || groupOf["b"] != groupOf["c"] {
		t.Fatalf("similar slopes should share a group: a=%d b=%d c=%d",
			groupOf["a"], groupOf["b"], groupOf["c"])
	}
	if groupOf["far"] == groupOf["a"] {
		t.Fatal("distant slope merged into the wrong group")
	}
	if len(groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(groups))
	}
	// Pooled line of the merged group must land between the member slopes.
	g := groups[groupOf["a"]]
	if g.Line.Slope < 0.9e-9 || g.Line.Slope > 1.35e-9 {
		t.Fatalf("pooled slope = %v", g.Line.Slope)
	}
	if g.Driver != DriverInput {
		t.Fatalf("group driver = %s", g.Driver)
	}
}

func TestGroupKernelsReducesModelCount(t *testing.T) {
	// Many kernels, few distinct behaviours → far fewer groups (the paper's
	// 182 kernels → 83 models).
	var recs []dataset.KernelRecord
	names := 0
	for i := 0; i < 20; i++ {
		slope := 1e-9 * (1 + 0.05*float64(i%4)) // 4 behaviour clusters
		name := string(rune('a'+i)) + "_kernel"
		recs = append(recs, plantRecords(name, DriverOperation, slope, 1e-6, 50, int64(100+i))...)
		names++
	}
	f := fitGPU(recs, every(len(recs)))
	groups, _ := groupKernels(f.kernels.classif, recs, f.kernels.index)
	if len(groups) >= names {
		t.Fatalf("grouping did not reduce model count: %d groups for %d kernels", len(groups), names)
	}
}

func TestGroupSparseKernelsExcluded(t *testing.T) {
	recs := plantRecords("dense", DriverInput, 1e-9, 1e-6, 100, 9)
	recs = append(recs, plantRecords("sparse", DriverInput, 1e-9, 1e-6, MinKernelObservations-1, 10)...)
	recs = append(recs, plantRecords("threshold", DriverInput, 1e-9, 1e-6, MinKernelObservations, 11)...)
	f := fitGPU(recs, every(len(recs)))
	_, groupOf := groupKernels(f.kernels.classif, recs, f.kernels.index)
	if _, ok := groupOf["sparse"]; ok {
		t.Fatal("sparse kernel should not get its own group model")
	}
	if _, ok := groupOf["dense"]; !ok {
		t.Fatal("dense kernel should be grouped")
	}
	if _, ok := groupOf["threshold"]; !ok {
		t.Fatalf("kernel with exactly %d observations should be grouped", MinKernelObservations)
	}
}

func TestFamilyOf(t *testing.T) {
	tests := []struct{ in, want string }{
		{"winograd_gemm_128x64", "winograd_gemm"},
		{"implicit_gemm_32x32", "implicit_gemm"},
		{"depthwise_conv_k3_s2", "depthwise_conv"},
		{"sgemm_256x128", "sgemm"},
		{"batched_gemm_nt_64x64", "batched_gemm_nt"},
		{"bn_fwd_inference", "bn_fwd_inference"},
		{"elementwise_relu", "elementwise_relu"},
		{"fft_r2c_plan", "fft"},
		{"direct_conv_k5", "direct_conv"},
	}
	for _, tt := range tests {
		if got := FamilyOf(tt.in); got != tt.want {
			t.Errorf("FamilyOf(%q) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestClassifyFamiliesPools(t *testing.T) {
	var recs []dataset.KernelRecord
	recs = append(recs, plantRecords("gemm_32x32", DriverOperation, 2e-9, 1e-6, 20, 11)...)
	recs = append(recs, plantRecords("gemm_64x64", DriverOperation, 2e-9, 1e-6, 20, 12)...)
	fams := fitGPU(recs, every(len(recs))).families.classif
	c, ok := fams["gemm"]
	if !ok {
		t.Fatalf("families = %v", SortedKernels(fams))
	}
	if c.N != 40 {
		t.Fatalf("pooled N = %d, want 40", c.N)
	}
	if c.Driver != DriverOperation {
		t.Fatalf("pooled driver = %s", c.Driver)
	}
}

func TestDriverOfAndSortedKernels(t *testing.T) {
	recs := plantRecords("k1", DriverInput, 1e-9, 1e-6, 50, 13)
	classif := ClassifyKernels(recs)
	if c, ok := classif["k1"]; !ok || c.Driver != DriverInput {
		t.Fatalf("k1 driver = %v, %v", c.Driver, ok)
	}
	if _, ok := classif["missing"]; ok {
		t.Fatal("missing kernel should be absent")
	}
	if names := SortedKernels(classif); len(names) != 1 || names[0] != "k1" {
		t.Fatalf("SortedKernels = %v", names)
	}
}
