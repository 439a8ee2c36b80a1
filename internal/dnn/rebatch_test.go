package dnn

import (
	"fmt"
	"strings"
	"testing"
)

// buildTinyTransformer mirrors TestTransformerInference's network so the
// rebatch/signature properties are exercised on the text-shaped layer kinds
// (Embedding, MatMul, LayerNorm) as well as the CNN ones.
func buildTinyTransformer() *Network {
	n := New("tinytx", "Test", TaskTextClassification, Shape{16})
	x := n.Embedding(NetworkInput, 100, 32)
	q := n.Linear(x, 32, 32)
	k := n.Linear(x, 32, 32)
	v := n.Linear(x, 32, 32)
	s := n.MatMul(q, k, 4, true)
	s = n.Softmax(s)
	c := n.MatMul(s, v, 4, false)
	n.LN(c)
	return n
}

// TestRebatchMatchesInfer proves Layer.Rebatch's exactness claim, which
// plan compilation and collection rely on: rewriting every layer's batch
// dimension in place (Network.Rebatch) produces the same shapes, in every
// slot of every layer, as a fresh shape inference at the target batch
// size, and the network reports the batch it moved to.
func TestRebatchMatchesInfer(t *testing.T) {
	builders := map[string]func() *Network{
		"cnn":         buildTinyCNN,
		"transformer": buildTinyTransformer,
	}
	batches := []int{1, 2, 7, 64, 512}
	for name, build := range builders {
		re := build()
		if err := re.Infer(4); err != nil {
			t.Fatalf("%s: Infer(4): %v", name, err)
		}
		for _, b := range batches {
			if err := re.Rebatch(b); err != nil {
				t.Fatalf("%s: Rebatch(%d): %v", name, b, err)
			}
			if re.Batch() != b {
				t.Fatalf("%s: Batch() = %d after Rebatch(%d)", name, re.Batch(), b)
			}
			ref := build()
			if err := ref.Infer(b); err != nil {
				t.Fatalf("%s: Infer(%d): %v", name, b, err)
			}
			for i := range ref.Layers {
				got, want := re.Layers[i], ref.Layers[i]
				if !got.InShape.Equal(want.InShape) {
					t.Fatalf("%s batch %d layer %d: InShape = %v, want %v", name, b, i, got.InShape, want.InShape)
				}
				if len(got.InShapes) != len(want.InShapes) {
					t.Fatalf("%s batch %d layer %d: %d InShapes, want %d", name, b, i, len(got.InShapes), len(want.InShapes))
				}
				for j := range want.InShapes {
					if !got.InShapes[j].Equal(want.InShapes[j]) {
						t.Fatalf("%s batch %d layer %d: InShapes[%d] = %v, want %v", name, b, i, j, got.InShapes[j], want.InShapes[j])
					}
				}
				if !got.OutShape.Equal(want.OutShape) {
					t.Fatalf("%s batch %d layer %d: OutShape = %v, want %v", name, b, i, got.OutShape, want.OutShape)
				}
			}
		}
	}
}

// fmtSignature is the fmt-based rendering Signature used before it switched
// to AppendSignature, kept here as the reference the strconv path is pinned
// against.
func fmtSignature(l *Layer) string {
	var b strings.Builder
	b.WriteString(string(l.Kind))
	switch l.Kind {
	case KindConv2D:
		fmt.Fprintf(&b, "|cin=%d|cout=%d|k=%dx%d|s=%d|p=%d|g=%d",
			l.Cin, l.Cout, l.KH, l.KW, l.Stride, l.Pad, l.Groups)
	case KindLinear:
		fmt.Fprintf(&b, "|in=%d|out=%d", l.InFeatures, l.OutFeatures)
	case KindMaxPool2D, KindAvgPool2D:
		fmt.Fprintf(&b, "|k=%dx%d|s=%d|p=%d", l.KH, l.KW, l.Stride, l.Pad)
	case KindEmbedding:
		fmt.Fprintf(&b, "|vocab=%d|dim=%d", l.VocabSize, l.EmbedDim)
	case KindMatMul:
		fmt.Fprintf(&b, "|heads=%d|tb=%t", l.Heads, l.TransposeB)
	}
	fmt.Fprintf(&b, "|in=%s|out=%s", l.InShape, l.OutShape)
	return b.String()
}

// TestAppendSignatureMatchesSignature pins Signature/AppendSignature to the
// fmt-based rendering they replaced, across every layer kind the builders
// produce, both before and after shape inference. The mapping tables learned
// by the KW models are keyed by these strings, so the rendering is a
// compatibility contract, not a formatting choice.
func TestAppendSignatureMatchesSignature(t *testing.T) {
	for _, build := range []func() *Network{buildTinyCNN, buildTinyTransformer} {
		n := build()
		check := func(stage string) {
			for i, l := range n.Layers {
				want := fmtSignature(l)
				if got := l.Signature(); got != want {
					t.Fatalf("%s %s layer %d: Signature = %q, want %q", n.Name, stage, i, got, want)
				}
				if got := string(l.AppendSignature(nil)); got != want {
					t.Fatalf("%s %s layer %d: AppendSignature = %q, want %q", n.Name, stage, i, got, want)
				}
			}
		}
		check("uninferred")
		if err := n.Infer(8); err != nil {
			t.Fatal(err)
		}
		check("inferred")
	}
}

// TestNetworkRebatchOverflowMatchesInfer: an inline network whose counts
// fit int64 at the inferred batch but overflow at a larger one fails the
// rebatch with exactly the error Infer gives at that batch, and is left
// marked uninferred.
func TestNetworkRebatchOverflowMatchesInfer(t *testing.T) {
	wide := func() *Network { // FLOPs 27·2^52 at batch 1, past int64 at 100
		n := New("wide", "Test", TaskImageClassification, Shape{3, 1 << 16, 1 << 16})
		n.Conv(NetworkInput, 3, 1<<20, 3, 1, 1)
		return n
	}
	deep := func() *Network { // 2^50 elements per sample, 2^63 at batch 2^13
		n := New("deep", "Test", TaskImageClassification, Shape{1 << 20, 1 << 20, 1 << 10})
		n.ReLU(n.ReLU(NetworkInput))
		return n
	}
	for _, c := range []struct {
		build     func() *Network
		fit, over int
	}{{wide, 1, 100}, {deep, 1, 1 << 13}} {
		n := c.build()
		if err := n.Infer(c.fit); err != nil {
			t.Fatalf("Infer(%d): %v", c.fit, err)
		}
		got := n.Rebatch(c.over)
		want := c.build().Infer(c.over)
		if got == nil || want == nil || got.Error() != want.Error() {
			t.Fatalf("%s: Rebatch(%d) = %v, want Infer's %v", n.Name, c.over, got, want)
		}
		if n.Batch() != 0 {
			t.Fatalf("%s: Batch() = %d after a failed Rebatch, want 0", n.Name, n.Batch())
		}
		if err := n.Rebatch(c.fit); err == nil {
			t.Fatalf("%s: Rebatch after a failed Rebatch succeeded; shapes are half-moved", n.Name)
		}
		if err := n.Infer(c.fit); err != nil {
			t.Fatalf("%s: re-Infer(%d) after the failure: %v", n.Name, c.fit, err)
		}
	}

	// Non-positive batches and uninferred networks fail like Infer does.
	n := buildTinyCNN()
	if err := n.Rebatch(8); err == nil {
		t.Fatal("Rebatch of an uninferred network succeeded")
	}
	if err := n.Infer(4); err != nil {
		t.Fatal(err)
	}
	if got, want := n.Rebatch(0), buildTinyCNN().Infer(0); got == nil || got.Error() != want.Error() {
		t.Fatalf("Rebatch(0) = %v, want Infer's %v", got, want)
	}
}
