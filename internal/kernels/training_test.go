package kernels

import (
	"strings"
	"testing"

	"repro/internal/dnn"
	"repro/internal/zoo"
)

func TestForLayerTrainingConv(t *testing.T) {
	l := convLayer(t, 64, 64, 3, 1, 1, 1, 56, 8)
	fwd := ForLayer(l)
	all := ForLayerTraining(l)
	// Forward + dgrad + wgrad + sgd update.
	if len(all) != len(fwd)+3 {
		t.Fatalf("training kernels = %d, want %d", len(all), len(fwd)+3)
	}
	var dgrad, wgrad, sgd bool
	for _, k := range all {
		switch {
		case strings.HasPrefix(k.Name, "conv_dgrad_"):
			dgrad = true
			if k.Class != ClassOperation {
				t.Errorf("dgrad class = %s", k.Class)
			}
			if k.FLOPs != k.LayerFLOPs {
				t.Errorf("dgrad FLOPs = %d, want layer FLOPs %d", k.FLOPs, k.LayerFLOPs)
			}
		case strings.HasPrefix(k.Name, "conv_wgrad_"):
			wgrad = true
		case k.Name == "sgd_update":
			sgd = true
			if k.LayerInputElems != l.WeightCount() {
				t.Errorf("sgd driver = %d, want weight count %d", k.LayerInputElems, l.WeightCount())
			}
		}
	}
	if !dgrad || !wgrad || !sgd {
		t.Fatalf("missing backward kernels: dgrad=%t wgrad=%t sgd=%t", dgrad, wgrad, sgd)
	}
}

func TestForLayerTrainingWeightlessLayer(t *testing.T) {
	n := dnn.New("r", "Test", dnn.TaskImageClassification, dnn.Shape{4, 8, 8})
	x := n.Conv(dnn.NetworkInput, 4, 4, 1, 1, 0)
	r := n.ReLU(x)
	if err := n.Infer(2); err != nil {
		t.Fatal(err)
	}
	ks := ForLayerTraining(n.Layers[r])
	// ReLU: forward elementwise + backward elementwise, no optimizer.
	if len(ks) != 2 {
		t.Fatalf("relu training kernels = %d", len(ks))
	}
	for _, k := range ks {
		if k.Name == "sgd_update" {
			t.Fatal("weightless layer got an optimizer kernel")
		}
	}
}

func TestForNetworkTrainingOrdering(t *testing.T) {
	net := zoo.MustResNet(18)
	if err := net.Infer(8); err != nil {
		t.Fatal(err)
	}
	fwdKs, _ := AppendNetwork(nil, nil, net, false)
	ks, idx := AppendNetwork(nil, nil, net, true)
	if len(ks) != len(idx) {
		t.Fatal("kernels/indices mismatch")
	}
	if len(ks) <= len(fwdKs) {
		t.Fatalf("training sequence (%d) should exceed forward (%d)", len(ks), len(fwdKs))
	}
	// The forward prefix is layer-ascending; the backward suffix descends.
	for i := 1; i < len(fwdKs); i++ {
		if idx[i] < idx[i-1] {
			t.Fatalf("forward prefix not ascending at %d", i)
		}
	}
	desc := idx[len(fwdKs):]
	for i := 1; i < len(desc); i++ {
		if desc[i] > desc[i-1] {
			t.Fatalf("backward suffix not descending at %d", i)
		}
	}
}

func TestTrainingKernelNamesDisjoint(t *testing.T) {
	// Backward kernels must carry distinct names from forward ones so the
	// device substrate and the KW model treat them as separate families.
	net := zoo.MustResNet(18)
	if err := net.Infer(8); err != nil {
		t.Fatal(err)
	}
	fwd := map[string]bool{}
	fwdKs, _ := AppendNetwork(nil, nil, net, false)
	for _, k := range fwdKs {
		fwd[k.Name] = true
	}
	ks, _ := AppendNetwork(nil, nil, net, true)
	bwdNames := map[string]bool{}
	for _, k := range ks[len(fwdKs):] {
		bwdNames[k.Name] = true
		if fwd[k.Name] {
			t.Fatalf("backward kernel %q collides with a forward name", k.Name)
		}
	}
	if len(bwdNames) < 5 {
		t.Fatalf("only %d distinct backward kernel names", len(bwdNames))
	}
}

func TestTrainingFLOPsRoughlyTriple(t *testing.T) {
	// Forward+backward executes ≈3× the forward multiplications for
	// conv-dominated networks (dgrad + wgrad each ≈ one forward).
	net := zoo.MustResNet(50)
	if err := net.Infer(8); err != nil {
		t.Fatal(err)
	}
	var fwd, train int64
	fwdKs, _ := AppendNetwork(nil, nil, net, false)
	for _, k := range fwdKs {
		fwd += k.FLOPs
	}
	ks, _ := AppendNetwork(nil, nil, net, true)
	for _, k := range ks {
		train += k.FLOPs
	}
	ratio := float64(train) / float64(fwd)
	if ratio < 2.2 || ratio > 4.5 {
		t.Fatalf("training/forward FLOPs ratio = %v", ratio)
	}
}

func TestTrainingViewLayersStillFree(t *testing.T) {
	n := dnn.New("v", "Test", dnn.TaskImageClassification, dnn.Shape{4, 8, 8})
	x := n.Conv(dnn.NetworkInput, 4, 4, 1, 1, 0)
	fl := n.Flatten(x)
	if err := n.Infer(1); err != nil {
		t.Fatal(err)
	}
	if ks := ForLayerTraining(n.Layers[fl]); len(ks) != 0 {
		t.Fatalf("flatten emitted %d training kernels", len(ks))
	}
}
