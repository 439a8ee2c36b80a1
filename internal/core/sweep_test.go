package core

import (
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/dnn"
	"repro/internal/gpu"
	"repro/internal/obs"
	"repro/internal/units"
	"repro/internal/zoo"
)

// sweepFixtureBatches covers the small-batch regime, off-breakpoint values
// and the training batch — the points where segment selection could diverge.
var sweepFixtureBatches = []int{1, 2, 3, 4, 7, 8, 63, 64, 511, 512}

// assertSweepIdentity checks that one PredictSweep call returns the exact
// same float64s (==, not within-epsilon) as per-batch PredictNetwork calls.
func assertSweepIdentity(t *testing.T, m SweepPredictor, nets []*dnn.Network) {
	t.Helper()
	for _, n := range nets {
		want := make([]units.Seconds, len(sweepFixtureBatches))
		for i, b := range sweepFixtureBatches {
			v, err := m.PredictNetwork(n, b)
			if err != nil {
				t.Fatalf("%s@%d: %v", n.Name, b, err)
			}
			want[i] = v
		}
		got, err := m.PredictSweep(n, sweepFixtureBatches)
		if err != nil {
			t.Fatalf("%s: sweep: %v", n.Name, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: sweep returned %d results for %d batches", n.Name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s@%d: sweep %v != looped %v (diff %g)",
					n.Name, sweepFixtureBatches[i], got[i], want[i], got[i]-want[i])
			}
		}
	}
}

// TestKWSweepBitIdentical is the golden test for the sweep path: one
// PredictSweep pass must be bit-identical to looped PredictNetwork calls for
// every zoo-sample network, with observation both off and on (telemetry must
// stay a pure side channel).
func TestKWSweepBitIdentical(t *testing.T) {
	ds := buildSampleDataset(t, false)
	kw, err := FitKW(ds, "A100", 512)
	if err != nil {
		t.Fatal(err)
	}
	nets := zooSample()

	prev := obs.Enabled()
	defer obs.SetEnabled(prev)
	obs.SetEnabled(false)
	t.Run("obs-off", func(t *testing.T) { assertSweepIdentity(t, kw, nets) })
	obs.SetEnabled(true)
	t.Run("obs-on", func(t *testing.T) { assertSweepIdentity(t, kw, nets) })
}

// TestIGKWSweepBitIdentical repeats the sweep identity proof for the
// cross-GPU model.
func TestIGKWSweepBitIdentical(t *testing.T) {
	ds := &dataset.Dataset{}
	for _, g := range []gpu.Spec{gpu.A100, gpu.A40, gpu.V100} {
		ds.Merge(plantKernelDataset(g, 3))
	}
	m, err := FitIGKW(ds, []gpu.Spec{gpu.A100, gpu.A40, gpu.V100}, gpu.TitanRTX, 512)
	if err != nil {
		t.Fatal(err)
	}
	assertSweepIdentity(t, m, zooSample()[:20])
}

func TestPredictSweepValidation(t *testing.T) {
	ds := plantKernelDataset(gpu.A100, 3)
	kw, err := FitKW(ds, "A100", 512)
	if err != nil {
		t.Fatal(err)
	}
	net, err := zoo.ByName("resnet18")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := kw.PredictSweep(net, []int{4, 0, 8}); err == nil {
		t.Fatal("batch 0 must be rejected")
	}
	if _, err := kw.PredictSweep(net, []int{-1}); err == nil {
		t.Fatal("negative batch must be rejected")
	}
	if _, err := kw.PredictSweep(net, []int{8, MaxBatch + 1}); err == nil {
		t.Fatal("batch MaxBatch+1 must be rejected")
	}
	if _, err := kw.PredictNetwork(net, MaxBatch+1); err == nil {
		t.Fatal("PredictNetwork at MaxBatch+1 must be rejected")
	}
	got, err := kw.PredictSweep(net, []int{MaxBatch})
	if err != nil {
		t.Fatalf("sweep at MaxBatch: %v", err)
	}
	if want, err := kw.PredictNetworkUncached(net.Clone(), MaxBatch); err != nil || got[0] != want {
		t.Fatalf("sweep at MaxBatch = %v, uncached %v (err %v)", got[0], want, err)
	}
	out, err := kw.PredictSweep(net, nil)
	if err != nil {
		t.Fatalf("empty sweep: %v", err)
	}
	if len(out) != 0 {
		t.Fatalf("empty sweep returned %d results", len(out))
	}
}

// badNetwork builds a network whose shape inference fails, for error-path
// coverage (a Linear fed the wrong feature count).
func badNetwork(name string) *dnn.Network {
	n := dnn.New(name, "test", dnn.TaskImageClassification, dnn.Shape{8})
	n.Linear(dnn.NetworkInput, 99, 10)
	return n
}

func TestPredictSweepErrorPropagates(t *testing.T) {
	ds := plantKernelDataset(gpu.A100, 3)
	kw, err := FitKW(ds, "A100", 512)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := kw.PredictSweep(badNetwork("bad"), []int{1, 2}); err == nil {
		t.Fatal("sweep over an invalid network must error")
	}
}

func TestPredictGridMatchesLoop(t *testing.T) {
	ds := plantKernelDataset(gpu.A100, 3)
	kw, err := FitKW(ds, "A100", 512)
	if err != nil {
		t.Fatal(err)
	}
	nets := []*dnn.Network{mustNet(t, "resnet50"), mustNet(t, "resnet18")}
	batches := []int{1, 64, 512}

	g, err := PredictGrid([]SweepPredictor{kw}, nets, batches)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.GPUs) != 1 || g.GPUs[0] != "A100" {
		t.Fatalf("GPUs = %v", g.GPUs)
	}
	if len(g.Networks) != 2 || g.Networks[0] != "resnet50" || g.Networks[1] != "resnet18" {
		t.Fatalf("Networks = %v", g.Networks)
	}
	for j, n := range nets {
		for k, b := range batches {
			want, err := kw.PredictNetwork(n, b)
			if err != nil {
				t.Fatal(err)
			}
			if got := g.Seconds[0][j][k]; got != want {
				t.Fatalf("cell (%s, %d): %v != %v", n.Name, b, got, want)
			}
		}
	}
}

// TestPredictGridFirstErrorWins: errors must be deterministic — the first
// failing cell in (model, network) order, regardless of goroutine timing.
func TestPredictGridFirstErrorWins(t *testing.T) {
	ds := plantKernelDataset(gpu.A100, 3)
	kw, err := FitKW(ds, "A100", 512)
	if err != nil {
		t.Fatal(err)
	}
	nets := []*dnn.Network{mustNet(t, "resnet18"), badNetwork("bad-one"), badNetwork("bad-two")}
	for i := 0; i < 10; i++ {
		_, err := PredictGrid([]SweepPredictor{kw}, nets, []int{1, 4})
		if err == nil {
			t.Fatal("grid with invalid networks must error")
		}
		if !strings.Contains(err.Error(), "grid cell") || !strings.Contains(err.Error(), "bad-one") {
			t.Fatalf("error %q should name the first failing cell (bad-one)", err)
		}
	}
}

func mustNet(t *testing.T, name string) *dnn.Network {
	t.Helper()
	n, err := zoo.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// ------------------------------------------------------------- benchmarks

// sweepBenchBatches is a 64-point batch grid, the design-space-exploration
// shape the sweep API exists for.
func sweepBenchBatches() []int {
	out := make([]int, 64)
	for i := range out {
		out[i] = 8 * (i + 1)
	}
	return out
}

// BenchmarkPredictSweep measures a 64-point sweep through one PredictSweep
// call. Compare with BenchmarkPredictSweepLoop: the sweep pays the per-query
// overhead (validation, fingerprint, cache lookup, telemetry) once instead
// of 64 times.
func BenchmarkPredictSweep(b *testing.B) {
	kw, net := benchKW(b)
	batches := sweepBenchBatches()
	if _, err := kw.PredictSweep(net, batches); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := kw.PredictSweep(net, batches); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictSweepLoop is the same 64-point grid through per-batch
// PredictNetwork calls — the consumer pattern PredictSweep replaces.
func BenchmarkPredictSweepLoop(b *testing.B) {
	kw, net := benchKW(b)
	batches := sweepBenchBatches()
	if _, err := kw.PredictNetwork(net, 512); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, batch := range batches {
			if _, err := kw.PredictNetwork(net, batch); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkPredictGrid measures the scheduling-case-study shape: one model,
// eight networks, a 16-point batch grid.
func BenchmarkPredictGrid(b *testing.B) {
	kw, _ := benchKW(b)
	nets := zooSample()[:8]
	batches := sweepBenchBatches()[:16]
	if _, err := PredictGrid([]SweepPredictor{kw}, nets, batches); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PredictGrid([]SweepPredictor{kw}, nets, batches); err != nil {
			b.Fatal(err)
		}
	}
}
