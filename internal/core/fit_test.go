package core

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/dnn"
	"repro/internal/gpu"
	"repro/internal/zoo"
)

// saveBytes serializes a fitted model for exact comparison.
func saveBytes(t *testing.T, m Predictor) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Save(&buf, m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStreamingFitGolden is the fit golden test: the KW, LW and E2E models
// fitted from a dataset collected by one worker serialize to the exact bytes
// of the models fitted from the same collection sharded across many workers.
// Run under -race by the verify gate, this pins the collection merge order
// the fits' floating-point folds depend on.
func TestStreamingFitGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline build")
	}
	opt := dataset.DefaultBuildOptions()
	opt.Batches = 8
	opt.Warmup = 2

	type artifacts struct{ kw, lw, e2e []byte }
	run := func(workers int) artifacts {
		// Collection runs GOMAXPROCS workers.
		prev := runtime.GOMAXPROCS(workers)
		ds, _, err := dataset.Build(zooSample(), []gpu.Spec{gpu.A100}, opt)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		kw, err := FitKW(ds, "A100", 512)
		if err != nil {
			t.Fatal(err)
		}
		lw, err := FitLW(ds, "A100", 512)
		if err != nil {
			t.Fatal(err)
		}
		e2e, err := FitE2E(ds, "A100", 512)
		if err != nil {
			t.Fatal(err)
		}
		return artifacts{saveBytes(t, kw), saveBytes(t, lw), saveBytes(t, e2e)}
	}

	one := run(1)
	procs := runtime.GOMAXPROCS(0)
	if procs < 2 {
		procs = 4
	}
	many := run(procs)
	if !bytes.Equal(one.kw, many.kw) {
		t.Errorf("KW coefficients differ across worker counts (%d vs %d bytes)", len(one.kw), len(many.kw))
	}
	if !bytes.Equal(one.lw, many.lw) {
		t.Error("LW coefficients differ across worker counts")
	}
	if !bytes.Equal(one.e2e, many.e2e) {
		t.Error("E2E coefficients differ across worker counts")
	}
	if len(one.kw) == 0 || len(one.lw) == 0 || len(one.e2e) == 0 {
		t.Fatal("implausibly empty serialized model")
	}
}

// TestFitKWMappingRepeatedCollection is the regression test for repeated
// collections: a dataset holding one detail collection twice (two Build
// outputs joined by Dataset.Merge) must yield exactly the mapping table of a
// single copy. Concatenating every record of a (network, batch, layer) key
// across the whole slice doubled each kernel list, and the predict paths'
// kernel-count guard then silently dropped every doubled entry.
func TestFitKWMappingRepeatedCollection(t *testing.T) {
	nets := []*dnn.Network{zoo.MustResNet(18), zoo.MustVGG(11, false), zoo.StandardMobileNetV2()}
	opt := dataset.DefaultBuildOptions()
	opt.Batches = 2
	opt.Warmup = 1
	opt.E2EBatchSizes = []int{512}
	one, _, err := dataset.Build(nets, []gpu.Spec{gpu.A100}, opt)
	if err != nil {
		t.Fatal(err)
	}
	twice := &dataset.Dataset{}
	twice.Merge(one)
	twice.Merge(one)

	want, err := FitKW(one, "A100", 512)
	if err != nil {
		t.Fatal(err)
	}
	got, err := FitKW(twice, "A100", 512)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Mapping) == 0 {
		t.Fatal("single collection produced an empty mapping table")
	}
	if !reflect.DeepEqual(got.Mapping, want.Mapping) {
		names := func(m map[string][]string) (n int) {
			for _, ks := range m {
				n += len(ks)
			}
			return n
		}
		t.Fatalf("repeated collection mapping: %d signatures / %d kernel names, want %d / %d",
			len(got.Mapping), names(got.Mapping), len(want.Mapping), names(want.Mapping))
	}
}

// BenchmarkFitKW gates the fitting side of the collection path (the
// bench_compare gate for this package): one full FitKW over a built
// dataset, exactly as training runs it. The dataset is collected once
// outside the timer.
func BenchmarkFitKW(b *testing.B) {
	ds := buildSampleDataset(b, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FitKW(ds, "A100", 512); err != nil {
			b.Fatal(err)
		}
	}
}
