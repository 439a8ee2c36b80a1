package kernels

import (
	"strings"
	"testing"

	"repro/internal/dnn"
	"repro/internal/zoo"
)

// convLayer builds and infers a lone convolution.
func convLayer(t *testing.T, cin, cout, k, stride, pad, groups, res, batch int) *dnn.Layer {
	t.Helper()
	n := dnn.New("k", "Test", dnn.TaskImageClassification, dnn.Shape{cin, res, res})
	n.GroupConv(dnn.NetworkInput, cin, cout, k, stride, pad, groups)
	if err := n.Infer(batch); err != nil {
		t.Fatal(err)
	}
	return n.Layers[0]
}

func TestSelectConvAlgorithm(t *testing.T) {
	tests := []struct {
		name                         string
		cin, cout, k, stride, pad, g int
		res                          int
		want                         ConvAlgorithm
	}{
		{"1x1 pointwise", 64, 128, 1, 1, 0, 1, 56, AlgoImplicitGEMM},
		{"3x3 stride1", 64, 64, 3, 1, 1, 1, 56, AlgoWinograd},
		{"3x3 stride2", 64, 64, 3, 2, 1, 1, 56, AlgoImplicitGEMM},
		{"3x3 narrow", 3, 8, 3, 1, 1, 1, 56, AlgoDirect},
		{"7x7 large input", 3, 64, 7, 2, 3, 1, 224, AlgoFFT},
		{"5x5 small input", 64, 64, 5, 1, 2, 1, 14, AlgoImplicitGEMM},
		{"depthwise", 32, 32, 3, 1, 1, 32, 56, AlgoDepthwise},
		{"grouped", 32, 64, 3, 1, 1, 4, 56, AlgoGroupedGEMM},
	}
	for _, tt := range tests {
		l := convLayer(t, tt.cin, tt.cout, tt.k, tt.stride, tt.pad, tt.g, tt.res, 1)
		if got := SelectConvAlgorithm(l); got != tt.want {
			t.Errorf("%s: algorithm = %s, want %s", tt.name, got, tt.want)
		}
	}
}

func TestWinogradKernelStructure(t *testing.T) {
	l := convLayer(t, 64, 64, 3, 1, 1, 1, 56, 8)
	ks := ForLayer(l)
	if len(ks) != 3 {
		t.Fatalf("winograd should emit 3 kernels, got %d", len(ks))
	}
	// The §4 O5 pattern: input-driven pre-processing, operation-driven main
	// kernel, output-driven post-processing.
	if ks[0].Class != ClassInput || ks[1].Class != ClassOperation || ks[2].Class != ClassOutput {
		t.Fatalf("classes = %s/%s/%s", ks[0].Class, ks[1].Class, ks[2].Class)
	}
	if !strings.HasPrefix(ks[1].Name, "winograd_gemm_") {
		t.Fatalf("main kernel = %q", ks[1].Name)
	}
	// Winograd's main kernel executes fewer multiplications than the layer's
	// theoretical FLOPs (the 2.25× reduction).
	if ks[1].FLOPs >= ks[1].LayerFLOPs {
		t.Fatalf("winograd main FLOPs %d should be below theoretical %d", ks[1].FLOPs, ks[1].LayerFLOPs)
	}
}

func TestFFTKernelStructure(t *testing.T) {
	l := convLayer(t, 3, 64, 7, 2, 3, 1, 224, 4)
	ks := ForLayer(l)
	if len(ks) != 3 {
		t.Fatalf("fft should emit 3 kernels, got %d", len(ks))
	}
	if ks[0].Class != ClassInput || ks[2].Class != ClassOutput {
		t.Fatalf("pre/post classes = %s/%s", ks[0].Class, ks[2].Class)
	}
}

func TestDriverCandidatesConsistent(t *testing.T) {
	l := convLayer(t, 64, 128, 1, 1, 0, 1, 28, 16)
	inElems := l.InShape.Numel()
	outElems := l.OutShape.Numel()
	for _, k := range ForLayer(l) {
		if k.LayerInputElems != inElems {
			t.Errorf("%s: LayerInputElems = %d, want %d", k.Name, k.LayerInputElems, inElems)
		}
		if k.LayerOutputElems != outElems {
			t.Errorf("%s: LayerOutputElems = %d, want %d", k.Name, k.LayerOutputElems, outElems)
		}
		if k.LayerFLOPs != dnn.LayerFLOPs(l) {
			t.Errorf("%s: LayerFLOPs = %d", k.Name, k.LayerFLOPs)
		}
		if k.BytesRead <= 0 || k.BytesWritten <= 0 {
			t.Errorf("%s: bytes = %d/%d", k.Name, k.BytesRead, k.BytesWritten)
		}
	}
}

func TestViewLayersEmitNoKernels(t *testing.T) {
	n := dnn.New("v", "Test", dnn.TaskImageClassification, dnn.Shape{4, 8, 8})
	x := n.Conv(dnn.NetworkInput, 4, 4, 1, 1, 0)
	fl := n.Flatten(x)
	dr := n.Dropout(fl)
	if err := n.Infer(1); err != nil {
		t.Fatal(err)
	}
	if ks := ForLayer(n.Layers[fl]); len(ks) != 0 {
		t.Errorf("flatten emitted %d kernels", len(ks))
	}
	if ks := ForLayer(n.Layers[dr]); len(ks) != 0 {
		t.Errorf("dropout emitted %d kernels", len(ks))
	}
}

func TestLinearKernels(t *testing.T) {
	n := dnn.New("fc", "Test", dnn.TaskImageClassification, dnn.Shape{256})
	n.Linear(dnn.NetworkInput, 256, 128)
	if err := n.Infer(64); err != nil {
		t.Fatal(err)
	}
	ks := ForLayer(n.Layers[0])
	if len(ks) != 2 {
		t.Fatalf("linear should emit gemm + bias, got %d kernels", len(ks))
	}
	if !strings.HasPrefix(ks[0].Name, "sgemm_") || ks[0].Class != ClassOperation {
		t.Fatalf("main = %q (%s)", ks[0].Name, ks[0].Class)
	}
	if ks[1].Name != "add_bias" || ks[1].Class != ClassOutput {
		t.Fatalf("epilogue = %q (%s)", ks[1].Name, ks[1].Class)
	}
}

func TestGemmTileBuckets(t *testing.T) {
	tests := []struct {
		m, n int64
		want string
	}{
		{10, 10, "32x32"},
		{70, 40, "64x32"},
		{70, 70, "64x64"},
		{200, 70, "128x64"},
		{200, 200, "128x128"},
		{300, 128, "256x128"},
	}
	for _, tt := range tests {
		if got := tileSuffix[gemmTile(tt.m, tt.n)]; got != tt.want {
			t.Errorf("gemmTile(%d, %d) = %q, want %q", tt.m, tt.n, got, tt.want)
		}
	}
}

func TestTileDependsOnProblemSize(t *testing.T) {
	small := convLayer(t, 64, 32, 1, 1, 0, 1, 7, 1)
	large := convLayer(t, 64, 512, 1, 1, 0, 1, 56, 64)
	ks, kl := ForLayer(small), ForLayer(large)
	if ks[len(ks)-1].Name == kl[len(kl)-1].Name {
		t.Fatalf("tile variant should differ with problem size (both %q)", ks[0].Name)
	}
}

func TestForNetworkMapping(t *testing.T) {
	net := zoo.MustResNet(18)
	if err := net.Infer(4); err != nil {
		t.Fatal(err)
	}
	ks, idx := AppendNetwork(nil, nil, net, false)
	if len(ks) != len(idx) {
		t.Fatalf("kernels/indices mismatch: %d vs %d", len(ks), len(idx))
	}
	if len(ks) == 0 {
		t.Fatal("no kernels for resnet18")
	}
	prev := -1
	for i, li := range idx {
		if li < 0 || li >= len(net.Layers) {
			t.Fatalf("kernel %d references layer %d", i, li)
		}
		if li < prev {
			t.Fatalf("layer indices not monotone at kernel %d", i)
		}
		prev = li
	}
}

// TestKernelNameDiversity checks the zoo produces on the order of the
// paper's "about 182 kernels" — enough diversity for per-kernel models to
// matter, few enough that each gets training data.
func TestKernelNameDiversity(t *testing.T) {
	names := map[string]bool{}
	for i, n := range zoo.Full() {
		if i%5 != 0 {
			continue
		}
		if err := n.Infer(512); err != nil {
			t.Fatal(err)
		}
		ks, _ := AppendNetwork(nil, nil, n, false)
		for _, k := range ks {
			names[k.Name] = true
		}
	}
	if len(names) < 25 || len(names) > 400 {
		t.Fatalf("distinct kernel names = %d, want within [25, 400]", len(names))
	}
	t.Logf("%d distinct kernel names", len(names))
}

func TestDeterministicSelection(t *testing.T) {
	a := convLayer(t, 64, 64, 3, 1, 1, 1, 56, 8)
	b := convLayer(t, 64, 64, 3, 1, 1, 1, 56, 8)
	ka, kb := ForLayer(a), ForLayer(b)
	if len(ka) != len(kb) {
		t.Fatal("non-deterministic kernel count")
	}
	for i := range ka {
		if ka[i] != kb[i] {
			t.Fatalf("kernel %d differs: %+v vs %+v", i, ka[i], kb[i])
		}
	}
}

// TestAppendNetworkAllocFree: every kernel name comes from a package table
// or constant, so enumerating a zoo-sample network — a forward pass or a
// training step — into buffers with enough capacity allocates nothing.
func TestAppendNetworkAllocFree(t *testing.T) {
	builders := zoo.FullBuilders()
	for i := 0; i < len(builders); i += 6 {
		n := builders[i]()
		if err := n.Infer(512); err != nil {
			t.Fatal(err)
		}
		for _, training := range []bool{false, true} {
			ks, idx := AppendNetwork(nil, nil, n, training)
			if allocs := testing.AllocsPerRun(5, func() {
				ks, idx = AppendNetwork(ks[:0], idx[:0], n, training)
			}); allocs != 0 {
				t.Fatalf("%s (training %t): %v allocs per enumeration, want 0", n.Name, training, allocs)
			}
		}
	}
}
