package core

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"
	"testing"

	"repro/internal/dataset"
	"repro/internal/gpu"
)

// igkwPredictionDigest pins every IGKW prediction of the digest fixture: the
// sha256 of each zoo-sample network's prediction at every planFixtureBatches
// size on every digest target, formatted as exact hexadecimal floats. It was
// recorded from the standalone IGKW predictor that preceded resolving IGKW to
// a KWModel, so a match proves the resolved model predicts bit-identically.
const igkwPredictionDigest = "c6d158754be77cdd4200a908917d0eed4390383b2a0677da85628f220d26f791"

// TestIGKWPredictionDigest resolves a zoo-sample base fitted on A100, A40 and
// V100 for a measured-spec target and two bandwidth hypotheticals, and
// compares the digest of all their predictions against the recorded one.
func TestIGKWPredictionDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline build")
	}
	train := []gpu.Spec{gpu.A100, gpu.A40, gpu.V100}
	opt := dataset.DefaultBuildOptions()
	opt.Batches = 8
	opt.Warmup = 2
	ds, _, err := dataset.Build(zooSample(), train, opt)
	if err != nil {
		t.Fatal(err)
	}
	base, err := FitIGKWBase(ds, train, 512)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, target := range []gpu.Spec{gpu.TitanRTX, gpu.TitanRTX.WithBandwidth(200), gpu.A100.WithBandwidth(1400)} {
		m, err := base.Resolve(target)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range zooSample() {
			for _, batch := range planFixtureBatches {
				v, err := m.PredictNetwork(n, batch)
				if err != nil {
					t.Fatalf("%s %s@%d: %v", m.GPUName(), n.Name, batch, err)
				}
				line := m.GPUName() + " " + n.Name + " " + strconv.Itoa(batch) + " " +
					strconv.FormatFloat(float64(v), 'x', -1, 64) + "\n"
				h.Write([]byte(line))
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != igkwPredictionDigest {
		t.Fatalf("IGKW prediction digest = %s, want %s", got, igkwPredictionDigest)
	}
}

// TestIGKWFirstMissingGPU holds FitIGKWBase's error to the first training
// GPU, in argument order, that has no records at the train batch: with the
// 2nd and 4th of four GPUs missing, it must name the 2nd, however the
// per-GPU fits are scheduled.
func TestIGKWFirstMissingGPU(t *testing.T) {
	ds := &dataset.Dataset{}
	ds.Merge(plantKernelDataset(gpu.A100, 2))
	ds.Merge(plantKernelDataset(gpu.GTX1080Ti, 2))
	train := []gpu.Spec{gpu.A100, gpu.A40, gpu.GTX1080Ti, gpu.V100}
	for i := 0; i < 20; i++ {
		_, err := FitIGKWBase(ds, train, 512)
		if err == nil {
			t.Fatal("missing training GPUs should error")
		}
		if want := errNoRecords("IGKW", gpu.A40.Name).Error(); err.Error() != want {
			t.Fatalf("error = %q, want %q", err, want)
		}
	}
}

// dseDataset collects the zoo sample on the quick lab's four bandwidth-DSE
// training GPUs with the quick lab's collection options.
func dseDataset(b *testing.B) (*dataset.Dataset, []gpu.Spec) {
	b.Helper()
	train := []gpu.Spec{gpu.A100, gpu.A40, gpu.GTX1080Ti, gpu.V100}
	opt := dataset.DefaultBuildOptions()
	opt.Batches = 8
	opt.Warmup = 2
	opt.Dedup = true
	ds, _, err := dataset.Build(zooSample(), train, opt)
	if err != nil {
		b.Fatal(err)
	}
	return ds, train
}

// BenchmarkFitIGKWBase measures fitting the target-independent IGKW base
// on the four DSE training GPUs, the set-up every resolve shares. The
// dataset is collected once outside the timer.
func BenchmarkFitIGKWBase(b *testing.B) {
	ds, train := dseDataset(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FitIGKWBase(ds, train, 512); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIGKWResolve measures resolving one target from a fitted base,
// cycling through the 13 case-study TITAN RTX bandwidths (200–1400 GB/s):
// the per-point cost of a bandwidth design-space sweep.
func BenchmarkIGKWResolve(b *testing.B) {
	ds, train := dseDataset(b)
	base, err := FitIGKWBase(ds, train, 512)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		target := gpu.TitanRTX.WithBandwidth(200 + float64(i%13)*100)
		if _, err := base.Resolve(target); err != nil {
			b.Fatal(err)
		}
	}
}
