package zoo

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/dnn"
)

func TestFullZooSizeAndUniqueness(t *testing.T) {
	nets := Full()
	if len(nets) != FullZooSize {
		t.Fatalf("zoo size = %d, want %d", len(nets), FullZooSize)
	}
	seen := map[string]bool{}
	for _, n := range nets {
		if seen[n.Name] {
			t.Fatalf("duplicate network name %q", n.Name)
		}
		seen[n.Name] = true
	}
}

func TestFullZooInfers(t *testing.T) {
	for _, n := range Full() {
		if err := n.Infer(4); err != nil {
			t.Fatalf("%s: %v", n.Name, err)
		}
		flops, err := n.TotalFLOPs()
		if err != nil || flops <= 0 {
			t.Fatalf("%s: FLOPs = %d, %v", n.Name, flops, err)
		}
	}
}

func TestFullZooDeterministic(t *testing.T) {
	a, b := Full(), Full()
	for i := range a {
		if a[i].Name != b[i].Name || len(a[i].Layers) != len(b[i].Layers) {
			t.Fatalf("zoo generation not deterministic at index %d", i)
		}
	}
}

func TestFamilyCoverage(t *testing.T) {
	fams := Families()
	want := []string{"AlexNet", "DenseNet", "GoogLeNet", "MobileNetV2",
		"ResNeXt", "ResNet", "ShuffleNetV1", "SqueezeNet", "Transformer", "VGG", "ViT"}
	if len(fams) != len(want) {
		t.Fatalf("families = %v", fams)
	}
	for i := range want {
		if fams[i] != want[i] {
			t.Fatalf("families = %v, want %v", fams, want)
		}
	}
}

// TestKnownFLOPs cross-checks the builders against published per-image
// multiply counts (thop conventions, 224×224 input). Tolerances absorb our
// counting of cheap non-conv layers.
func TestKnownFLOPs(t *testing.T) {
	tests := []struct {
		name   string
		gflops float64 // published multiply count per image
		tol    float64
	}{
		{"resnet18", 1.82, 0.10},
		{"resnet50", 4.12, 0.10},
		{"resnet101", 7.85, 0.10},
		{"vgg16", 15.5, 0.10},
		{"densenet121", 2.88, 0.12},
		{"mobilenet_v2", 0.32, 0.15},
		{"alexnet", 0.71, 0.15},
		{"googlenet", 1.51, 0.15},
	}
	for _, tt := range tests {
		n, err := ByName(tt.name)
		if err != nil {
			t.Fatal(err)
		}
		flops, err := n.FLOPsAt(1)
		if err != nil {
			t.Fatalf("%s: %v", tt.name, err)
		}
		got := float64(flops) / 1e9
		if got < tt.gflops*(1-tt.tol) || got > tt.gflops*(1+tt.tol) {
			t.Errorf("%s: %.2f GFLOPs, want %.2f ± %.0f%%", tt.name, got, tt.gflops, tt.tol*100)
		}
	}
}

func TestResNetDepthNaming(t *testing.T) {
	for _, depth := range []int{18, 34, 50, 101, 152, 44, 62, 77} {
		n, err := StandardResNet(depth)
		if err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		// Conv layer count (excluding downsample projections) + FC should
		// equal the nominal depth.
		if err := n.Infer(1); err != nil {
			t.Fatal(err)
		}
		cfg := standardResNetBlocks[depth]
		got := ResNetConfig{Blocks: cfg.blocks, Bottleneck: cfg.bottleneck}.Depth()
		if got != depth {
			t.Errorf("depth formula for %d gives %d", depth, got)
		}
	}
	if _, err := StandardResNet(33); err == nil {
		t.Fatal("unknown depth should error")
	}
}

func TestVGGConfigs(t *testing.T) {
	for _, depth := range []int{11, 13, 16, 19} {
		n := MustVGG(depth, false)
		convs := 0
		for _, l := range n.Layers {
			if l.Kind == dnn.KindConv2D {
				convs++
			}
		}
		// VGG-depth = convs + 3 FC layers.
		if convs+3 != depth {
			t.Errorf("vgg%d has %d convs", depth, convs)
		}
	}
	bn := MustVGG(16, true)
	hasBN := false
	for _, l := range bn.Layers {
		if l.Kind == dnn.KindBatchNorm {
			hasBN = true
		}
	}
	if !hasBN {
		t.Fatal("vgg16_bn has no batch norm layers")
	}
}

func TestDenseNetGrowth(t *testing.T) {
	n := MustDenseNet(121)
	if err := n.Infer(1); err != nil {
		t.Fatal(err)
	}
	// DenseNet-121's final feature width is 1024.
	last := n.Layers[n.Output()]
	if last.Kind != dnn.KindLinear || last.InFeatures != 1024 {
		t.Fatalf("densenet121 classifier input = %d, want 1024", last.InFeatures)
	}
	concats := 0
	for _, l := range n.Layers {
		if l.Kind == dnn.KindConcat {
			concats++
		}
	}
	if concats != 6+12+24+16 {
		t.Fatalf("densenet121 has %d dense layers", concats)
	}
}

func TestMobileNetDepthwise(t *testing.T) {
	n := StandardMobileNetV2()
	dw := 0
	for _, l := range n.Layers {
		if l.Kind == dnn.KindConv2D && l.Groups > 1 {
			dw++
		}
	}
	if dw != 17 { // one depthwise conv per inverted residual block
		t.Fatalf("mobilenet_v2 has %d depthwise convs, want 17", dw)
	}
}

func TestShuffleNetChannels(t *testing.T) {
	n := StandardShuffleNetV1()
	if err := n.Infer(1); err != nil {
		t.Fatal(err)
	}
	shuffles := 0
	for _, l := range n.Layers {
		if l.Kind == dnn.KindChannelShuffle {
			shuffles++
		}
	}
	if shuffles != 16 { // one per unit: 4+8+4
		t.Fatalf("shufflenet has %d channel shuffles", shuffles)
	}
	if _, err := ByName("shufflenet_v1"); err != nil {
		t.Fatal(err)
	}
}

func TestTransformerStructure(t *testing.T) {
	n, err := StandardTransformer("bert-base")
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Infer(2); err != nil {
		t.Fatal(err)
	}
	matmuls := 0
	for _, l := range n.Layers {
		if l.Kind == dnn.KindMatMul {
			matmuls++
		}
	}
	if matmuls != 24 { // two per encoder block
		t.Fatalf("bert-base has %d matmuls, want 24", matmuls)
	}
	if _, err := StandardTransformer("bert-huge"); err == nil {
		t.Fatal("unknown transformer should error")
	}
}

// TestByName: every standard network resolves by its name to a network
// identical to Standard()'s, and an unknown name is an error naming it.
func TestByName(t *testing.T) {
	for _, want := range Standard() {
		n, err := ByName(want.Name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", want.Name, err)
		}
		if !reflect.DeepEqual(n, want) {
			t.Fatalf("ByName(%q) differs from Standard()'s network", want.Name)
		}
	}
	_, err := ByName("nonexistent")
	if want := `zoo: unknown standard network "nonexistent"`; err == nil || err.Error() != want {
		t.Fatalf("unknown name: err = %v, want %q", err, want)
	}
}

func TestFigure4Nets(t *testing.T) {
	resnets, vggs := Figure4Nets()
	if len(resnets) != 8 || len(vggs) != 8 {
		t.Fatalf("figure 4 series sizes: %d/%d", len(resnets), len(vggs))
	}
	for _, n := range append(resnets, vggs...) {
		if err := n.Infer(2); err != nil {
			t.Fatalf("%s: %v", n.Name, err)
		}
		if !strings.HasPrefix(n.Name, "fig4-") {
			t.Fatalf("figure-4 net %q lacks naming prefix", n.Name)
		}
	}
}

func TestSqueezeNetVersions(t *testing.T) {
	v10 := SqueezeNet("1.0", 224)
	v11 := SqueezeNet("1.1", 224)
	f10, err := v10.FLOPsAt(1)
	if err != nil {
		t.Fatal(err)
	}
	f11, err := v11.FLOPsAt(1)
	if err != nil {
		t.Fatal(err)
	}
	// v1.1 is the lighter revision.
	if f11 >= f10 {
		t.Fatalf("squeezenet1.1 (%d) should be cheaper than 1.0 (%d)", f11, f10)
	}
}

func TestResolutionScalesFLOPs(t *testing.T) {
	small := AlexNet(160)
	big := AlexNet(256)
	fs, err := small.FLOPsAt(1)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := big.FLOPsAt(1)
	if err != nil {
		t.Fatal(err)
	}
	if fb <= fs {
		t.Fatalf("higher resolution should cost more: %d vs %d", fb, fs)
	}
}

func TestViTStructure(t *testing.T) {
	v, err := StandardViT("vit-base")
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Infer(2); err != nil {
		t.Fatal(err)
	}
	// 224/16 = 14 → 196 tokens of width 768 after the patch embedding.
	var tokens *dnn.Layer
	for _, l := range v.Layers {
		if l.Kind == dnn.KindReshapeTokens {
			tokens = l
			break
		}
	}
	if tokens == nil {
		t.Fatal("no token reshape layer")
	}
	if !tokens.OutShape.Equal(dnn.Shape{2, 196, 768}) {
		t.Fatalf("token shape = %v", tokens.OutShape)
	}
	matmuls := 0
	for _, l := range v.Layers {
		if l.Kind == dnn.KindMatMul {
			matmuls++
		}
	}
	if matmuls != 24 {
		t.Fatalf("vit-base matmuls = %d, want 24", matmuls)
	}
	// Published ViT-B/16: ≈ 17.6 GFLOPs per image.
	flops, err := v.FLOPsAt(1)
	if err != nil {
		t.Fatal(err)
	}
	if g := float64(flops) / 1e9; g < 15 || g > 20 {
		t.Fatalf("vit-base GFLOPs = %.2f, want ≈ 17.6", g)
	}
}

func TestResNeXtAndWide(t *testing.T) {
	x, err := ResNeXt("50_32x4d")
	if err != nil {
		t.Fatal(err)
	}
	flops, err := x.FLOPsAt(1)
	if err != nil {
		t.Fatal(err)
	}
	// Published resnext50_32x4d ≈ 4.2 GFLOPs/image.
	if g := float64(flops) / 1e9; g < 3.7 || g > 4.8 {
		t.Fatalf("resnext50 GFLOPs = %.2f", g)
	}
	grouped := 0
	for _, l := range x.Layers {
		if l.Kind == dnn.KindConv2D && l.Groups == 32 {
			grouped++
		}
	}
	if grouped != 16 { // one grouped 3×3 per bottleneck block
		t.Fatalf("resnext50 grouped convs = %d", grouped)
	}

	w, err := WideResNet(50)
	if err != nil {
		t.Fatal(err)
	}
	wf, err := w.FLOPsAt(1)
	if err != nil {
		t.Fatal(err)
	}
	// Published wide_resnet50_2 ≈ 11.4 GFLOPs/image.
	if g := float64(wf) / 1e9; g < 10 || g > 13 {
		t.Fatalf("wide_resnet50_2 GFLOPs = %.2f", g)
	}
	if _, err := ResNeXt("nope"); err == nil {
		t.Fatal("unknown variant should error")
	}
	if _, err := WideResNet(18); err == nil {
		t.Fatal("unknown depth should error")
	}
}

// TestFullBuildersMatchFull pins the lazy-zoo invariant NewQuickLab depends
// on: FullBuilders()[i]() constructs exactly Full()[i], so a caller can
// materialize any subset of the zoo without building the rest.
func TestFullBuildersMatchFull(t *testing.T) {
	full := Full()
	builders := FullBuilders()
	if len(builders) != len(full) {
		t.Fatalf("builders = %d, zoo = %d", len(builders), len(full))
	}
	for i, mk := range builders {
		n := mk()
		if n.Name != full[i].Name {
			t.Fatalf("builder %d builds %q, zoo has %q", i, n.Name, full[i].Name)
		}
		if !reflect.DeepEqual(n, full[i]) {
			t.Fatalf("builder %d (%s): network structure differs from Full()", i, n.Name)
		}
	}
}
