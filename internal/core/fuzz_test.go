package core

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/units"
	"repro/internal/zoo"
)

// FuzzFamilyOf checks the kernel-family extraction on arbitrary names: it
// must never panic, the family is always a prefix of the name, and family
// extraction is idempotent.
func FuzzFamilyOf(f *testing.F) {
	f.Add("winograd_gemm_128x64")
	f.Add("depthwise_conv_k3_s2")
	f.Add("")
	f.Add("___")
	f.Add("123")
	f.Add("a_1_b_2")
	f.Fuzz(func(t *testing.T, name string) {
		fam := FamilyOf(name)
		if !strings.HasPrefix(name, fam) {
			t.Fatalf("FamilyOf(%q) = %q is not a prefix", name, fam)
		}
		if again := FamilyOf(fam); again != fam {
			t.Fatalf("FamilyOf not idempotent: %q → %q → %q", name, fam, again)
		}
	})
}

// FuzzLoad checks the model-envelope decoder on arbitrary bytes: Load either
// returns an error, or the model it returns predicts a small fixed network
// through PredictNetwork (and, for KW models, PredictSweep) without
// panicking, and every prediction it returns is finite. Seeds are a
// measured KW envelope, an IGKW-resolved one, and every malformed case Load
// must reject — among them the coefficients that overflowed a prediction to
// +Inf.
func FuzzLoad(f *testing.F) {
	kw, igkw := persistFixtures(f)
	f.Add(kw)
	f.Add(igkw)
	for _, tc := range malformedKWCases {
		f.Add(plantEnvelope(f, kw, tc.plant))
	}
	net := zoo.MustResNet(18)
	finite := func(t *testing.T, v units.Seconds, batch int) {
		if math.IsInf(v.Float64(), 0) || v.IsNaN() {
			t.Fatalf("loaded model predicts %v at batch %d", v, batch)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, b := range []int{1, 64, 513} {
			if v, err := m.PredictNetwork(net, b); err == nil {
				finite(t, v, b)
			}
		}
		if sp, ok := m.(SweepPredictor); ok {
			batches := []int{1, 3, 512, 513}
			if vs, err := sp.PredictSweep(net, batches); err == nil {
				for i, v := range vs {
					finite(t, v, batches[i])
				}
			}
		}
	})
}
