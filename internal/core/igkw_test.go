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
