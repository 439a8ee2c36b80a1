package dnn

import (
	"strings"
	"testing"
)

// buildTinyCNN assembles a small but representative CNN: stem conv, BN,
// ReLU, pool, a residual pair, global pool, flatten, linear.
func buildTinyCNN() *Network {
	n := New("tiny", "Test", TaskImageClassification, Shape{3, 32, 32})
	x := n.Conv(NetworkInput, 3, 16, 3, 1, 1)
	x = n.BN(x)
	x = n.ReLU(x)
	x = n.MaxPool(x, 2, 2, 0)
	branch := n.Conv(x, 16, 16, 3, 1, 1)
	branch = n.BN(branch)
	x = n.Residual(branch, x)
	x = n.ReLU(x)
	x = n.GlobalAvgPool(x)
	x = n.Flatten(x)
	n.Linear(x, 16, 10)
	return n
}

func TestInferShapes(t *testing.T) {
	n := buildTinyCNN()
	if err := n.Infer(4); err != nil {
		t.Fatal(err)
	}
	want := []struct {
		idx   int
		shape Shape
	}{
		{0, Shape{4, 16, 32, 32}}, // conv stem
		{3, Shape{4, 16, 16, 16}}, // pool
		{6, Shape{4, 16, 16, 16}}, // residual
		{8, Shape{4, 16, 1, 1}},   // global pool
		{9, Shape{4, 16}},         // flatten
		{10, Shape{4, 10}},        // linear
	}
	for _, w := range want {
		if got := n.Layers[w.idx].OutShape; !got.Equal(w.shape) {
			t.Errorf("layer %d (%s): OutShape = %v, want %v",
				w.idx, n.Layers[w.idx].Kind, got, w.shape)
		}
	}
	if n.Batch() != 4 {
		t.Errorf("Batch() = %d, want 4", n.Batch())
	}
}

func TestInferConvGeometry(t *testing.T) {
	// The classic ResNet stem: 7×7 stride-2 pad-3 on 224 → 112.
	n := New("stem", "Test", TaskImageClassification, Shape{3, 224, 224})
	n.Conv(NetworkInput, 3, 64, 7, 2, 3)
	if err := n.Infer(1); err != nil {
		t.Fatal(err)
	}
	if got := n.Layers[0].OutShape; !got.Equal(Shape{1, 64, 112, 112}) {
		t.Fatalf("stem OutShape = %v", got)
	}
}

func TestInferConcat(t *testing.T) {
	n := New("cat", "Test", TaskImageClassification, Shape{8, 10, 10})
	a := n.Conv(NetworkInput, 8, 4, 1, 1, 0)
	b := n.Conv(NetworkInput, 8, 6, 1, 1, 0)
	c := n.Concat(a, b)
	if err := n.Infer(2); err != nil {
		t.Fatal(err)
	}
	if got := n.Layers[c].OutShape; !got.Equal(Shape{2, 10, 10, 10}) {
		t.Fatalf("concat OutShape = %v, want (2, 10, 10, 10)", got)
	}
}

func TestInferErrors(t *testing.T) {
	t.Run("add shape mismatch", func(t *testing.T) {
		n := New("bad", "Test", TaskImageClassification, Shape{3, 8, 8})
		a := n.Conv(NetworkInput, 3, 4, 1, 1, 0)
		b := n.Conv(NetworkInput, 3, 8, 1, 1, 0)
		n.Residual(a, b)
		if err := n.Infer(1); err == nil {
			t.Fatal("want error for mismatched Add inputs")
		}
	})
	t.Run("forward reference", func(t *testing.T) {
		n := New("bad", "Test", TaskImageClassification, Shape{3, 8, 8})
		n.Add(&Layer{Kind: KindReLU, Inputs: []int{5}})
		if err := n.Infer(1); err == nil {
			t.Fatal("want error for forward input reference")
		}
	})
	t.Run("channel mismatch", func(t *testing.T) {
		n := New("bad", "Test", TaskImageClassification, Shape{3, 8, 8})
		n.Conv(NetworkInput, 16, 4, 1, 1, 0) // claims 16 input channels
		if err := n.Infer(1); err == nil {
			t.Fatal("want error for conv channel mismatch")
		}
	})
	t.Run("linear feature mismatch", func(t *testing.T) {
		n := New("bad", "Test", TaskImageClassification, Shape{10})
		n.Linear(NetworkInput, 20, 5)
		if err := n.Infer(1); err == nil {
			t.Fatal("want error for linear feature mismatch")
		}
	})
	t.Run("non-positive batch", func(t *testing.T) {
		n := buildTinyCNN()
		if err := n.Infer(0); err == nil {
			t.Fatal("want error for batch 0")
		}
	})
	t.Run("empty network", func(t *testing.T) {
		n := New("empty", "Test", TaskImageClassification, Shape{3, 8, 8})
		if err := n.Infer(1); err == nil {
			t.Fatal("want error for empty network")
		}
	})
	t.Run("spatial collapse", func(t *testing.T) {
		n := New("bad", "Test", TaskImageClassification, Shape{3, 4, 4})
		x := n.MaxPool(NetworkInput, 2, 2, 0) // 4 → 2
		x = n.MaxPool(x, 2, 2, 0)             // 2 → 1
		n.MaxPool(x, 2, 2, 0)                 // 1 → 0: error
		if err := n.Infer(1); err == nil {
			t.Fatal("want error for collapsed spatial size")
		}
	})
}

// TestInferRejectsCountOverflow: shape inference refuses a layer whose
// element, parameter or FLOP count leaves int64 at the inferred batch.
func TestInferRejectsCountOverflow(t *testing.T) {
	const maxInt32 = 1<<31 - 1
	huge := New("huge", "Test", TaskImageClassification, Shape{maxInt32, maxInt32, maxInt32})
	huge.ReLU(NetworkInput)
	wide := New("wide", "Test", TaskImageClassification, Shape{3, 1 << 16, 1 << 16})
	wide.Conv(NetworkInput, 3, 1<<20, 3, 1, 1)
	fat := New("fat", "Test", TaskImageClassification, Shape{1 << 32})
	fat.Linear(NetworkInput, 1<<32, 1<<32)
	cases := []struct {
		n     *Network
		batch int
		want  string
	}{
		{huge, 1, "element count overflows"},
		{wide, 100, "FLOP count overflows"},
		{fat, 1, "parameter count overflows"},
	}
	for _, c := range cases {
		err := c.n.Infer(c.batch)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s at batch %d: err = %v, want %q", c.n.Name, c.batch, err, c.want)
		}
	}

	// The wide convolution fits at batch 1 (its FLOPs are 27·2^52), so it
	// infers there.
	if err := wide.Infer(1); err != nil {
		t.Fatal(err)
	}
	if f, err := wide.TotalFLOPs(); err != nil || f != 27<<52 {
		t.Fatalf("TotalFLOPs = %d, %v; want %d", f, err, int64(27)<<52)
	}

	// Two layers of 2^62 FLOPs each infer, but their total does not fit.
	twin := New("twin", "Test", TaskImageClassification, Shape{1 << 31, 1 << 31})
	twin.ReLU(twin.ReLU(NetworkInput))
	if err := twin.Infer(1); err != nil {
		t.Fatal(err)
	}
	if _, err := twin.TotalFLOPs(); err == nil || !strings.Contains(err.Error(), "overflow") {
		t.Fatalf("TotalFLOPs: err = %v, want an overflow", err)
	}
}

func TestLayerValidate(t *testing.T) {
	bad := []*Layer{
		{Kind: KindConv2D, Inputs: []int{NetworkInput}, Cin: 3, Cout: 4, KH: 3, KW: 3, Stride: 1, Groups: 0},
		{Kind: KindConv2D, Inputs: []int{NetworkInput}, Cin: 3, Cout: 4, KH: 3, KW: 3, Stride: 1, Groups: 2},
		{Kind: KindLinear, Inputs: []int{NetworkInput}, InFeatures: 0, OutFeatures: 4},
		{Kind: KindAdd, Inputs: []int{NetworkInput}},
		{Kind: KindConcat, Inputs: []int{NetworkInput}},
		{Kind: KindMatMul, Inputs: []int{NetworkInput, 0}, Heads: 0},
		{Kind: KindEmbedding, Inputs: []int{NetworkInput}, VocabSize: 0, EmbedDim: 4},
		{Kind: KindReLU, Inputs: nil},
		{Kind: KindChannelShuffle, Inputs: []int{NetworkInput}, Groups: 0},
	}
	for i, l := range bad {
		if err := l.validate(); err == nil {
			t.Errorf("case %d (%s): want validation error", i, l.Kind)
		}
	}
}

func TestSignatureStability(t *testing.T) {
	n := buildTinyCNN()
	if err := n.Infer(4); err != nil {
		t.Fatal(err)
	}
	sig := n.Layers[0].Signature()
	if !strings.Contains(sig, "Conv2D") || !strings.Contains(sig, "cin=3") {
		t.Fatalf("unexpected conv signature %q", sig)
	}
	// Same structure at the same batch must give identical signatures.
	n2 := buildTinyCNN()
	if err := n2.Infer(4); err != nil {
		t.Fatal(err)
	}
	if n2.Layers[0].Signature() != sig {
		t.Fatal("signatures differ across identical builds")
	}
	// Different batch changes the signature (shapes embed the batch).
	if err := n2.Infer(8); err != nil {
		t.Fatal(err)
	}
	if n2.Layers[0].Signature() == sig {
		t.Fatal("signature should change with batch size")
	}
}

func TestTransformerInference(t *testing.T) {
	n := New("tx", "Test", TaskTextClassification, Shape{16})
	x := n.Embedding(NetworkInput, 100, 32)
	q := n.Linear(x, 32, 32)
	k := n.Linear(x, 32, 32)
	v := n.Linear(x, 32, 32)
	s := n.MatMul(q, k, 4, true)
	s = n.Softmax(s)
	c := n.MatMul(s, v, 4, false)
	n.LN(c)
	if err := n.Infer(2); err != nil {
		t.Fatal(err)
	}
	if got := n.Layers[s].OutShape; !got.Equal(Shape{2, 16, 64}) {
		t.Fatalf("scores shape = %v, want (2, 16, 64)", got)
	}
	if got := n.Layers[c].OutShape; !got.Equal(Shape{2, 16, 32}) {
		t.Fatalf("context shape = %v, want (2, 16, 32)", got)
	}
}

func TestWeightAndActivationBytes(t *testing.T) {
	n := buildTinyCNN()
	if err := n.Infer(2); err != nil {
		t.Fatal(err)
	}
	// conv1: 16·3·3·3, conv2: 16·16·3·3, 2 BN (2·16 each), linear 16·10+10.
	wantWeights := int64(16*3*9+16*16*9+2*2*16+16*10+10) * 4
	if got := n.WeightBytes(); got != wantWeights {
		t.Errorf("WeightBytes() = %d, want %d", got, wantWeights)
	}
	if n.ActivationBytes() <= 0 {
		t.Error("ActivationBytes() should be positive")
	}
	if n.PeakActivationBytes() > n.ActivationBytes() {
		t.Error("peak activations cannot exceed total activations")
	}
	if n.TotalBytes() < n.WeightBytes() {
		t.Error("TotalBytes should include weights")
	}
	if n.ArithmeticIntensity() <= 0 {
		t.Error("ArithmeticIntensity should be positive")
	}
}

func TestValidateRunsAtBatchOne(t *testing.T) {
	n := buildTinyCNN()
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	if n.Batch() != 1 {
		t.Errorf("Validate should leave batch = 1, got %d", n.Batch())
	}
}

func TestAddAssignsUniqueNames(t *testing.T) {
	n := buildTinyCNN()
	seen := map[string]bool{}
	for _, l := range n.Layers {
		if l.Name == "" {
			t.Fatal("layer with empty name")
		}
		if seen[l.Name] {
			t.Fatalf("duplicate layer name %q", l.Name)
		}
		seen[l.Name] = true
	}
}
