package core_test

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/gpu"
)

// TestSaveLoadQuickLabKW: the envelope a fleet parent hands its replicas is
// the core.Save of the real quick-lab A100 model, and Load of it must
// predict bit-identically to the fitted model for every lab network at
// every batch size the serving tests probe — a replica serving a loaded
// model answers what a self-fitting one would.
func TestSaveLoadQuickLabKW(t *testing.T) {
	lab := bench.NewQuickLab()
	ds, err := lab.Dataset(gpu.A100)
	if err != nil {
		t.Fatal(err)
	}
	train, _ := lab.Split(ds)
	m, err := core.FitKW(train, gpu.A100.Name, bench.TrainBatch)
	if err != nil {
		t.Fatal(err)
	}
	var env bytes.Buffer
	if err := core.Save(&env, m); err != nil {
		t.Fatal(err)
	}
	saved := bytes.Clone(env.Bytes())
	loaded, err := core.Load(&env)
	if err != nil {
		t.Fatal(err)
	}
	back, ok := loaded.(*core.KWModel)
	if !ok || back.Name() != m.Name() || back.GPUName() != m.GPUName() {
		t.Fatalf("loaded %T %s on %s, want the KW model on %s", loaded, loaded.Name(), loaded.GPUName(), m.GPUName())
	}
	var again bytes.Buffer
	if err := core.Save(&again, back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), saved) {
		t.Fatal("the loaded model does not save to the bytes it was loaded from")
	}
	for _, n := range lab.Networks() {
		for _, b := range []int{1, 8, 64, 512} {
			want, err := m.PredictNetwork(n, b)
			if err != nil {
				t.Fatalf("%s@%d: %v", n.Name, b, err)
			}
			got, err := back.PredictNetwork(n, b)
			if err != nil {
				t.Fatalf("%s@%d after Load: %v", n.Name, b, err)
			}
			if math.Float64bits(got.Float64()) != math.Float64bits(want.Float64()) {
				t.Fatalf("%s@%d: loaded model predicts %v, fitted %v", n.Name, b, got, want)
			}
		}
	}
}
