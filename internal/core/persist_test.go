package core

import (
	"bytes"
	"encoding/json"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/dnn"
	"repro/internal/gpu"
	"repro/internal/units"
	"repro/internal/zoo"
)

// roundTrip saves and reloads a model through the JSON envelope.
func roundTrip(t *testing.T, m Predictor) Predictor {
	t.Helper()
	var buf bytes.Buffer
	if err := Save(&buf, m); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return back
}

// samePrediction asserts two predictors agree on a reference network.
func samePrediction(t *testing.T, a, b Predictor) {
	t.Helper()
	net := zoo.MustResNet(18)
	pa, err := a.PredictNetwork(net, 64)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := b.PredictNetwork(net, 64)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(pa-pb)) > 1e-15*math.Abs(float64(pa)) {
		t.Fatalf("predictions diverge after round trip: %v vs %v", pa, pb)
	}
}

func TestSaveLoadE2E(t *testing.T) {
	ds := syntheticE2EDataset("A100", 2e-12, 5e-3)
	m, err := FitE2E(ds, "A100", 512)
	if err != nil {
		t.Fatal(err)
	}
	back := roundTrip(t, m)
	if back.Name() != "E2E" || back.GPUName() != "A100" {
		t.Fatal("identity lost")
	}
	samePrediction(t, m, back)
}

func TestSaveLoadKW(t *testing.T) {
	ds := plantKernelDataset(gpu.A100, 4)
	m, err := FitKW(ds, "A100", 512)
	if err != nil {
		t.Fatal(err)
	}
	back := roundTrip(t, m).(*KWModel)
	samePrediction(t, m, back)
	if back.KernelCount() != m.KernelCount() || back.ModelCount() != m.ModelCount() {
		t.Fatal("model structure lost")
	}
	// A measured model's envelope carries no train_gpus and reloads as KW.
	var buf bytes.Buffer
	if err := Save(&buf, m); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte("train_gpus")) || back.Name() != "KW" {
		t.Fatalf("measured model persisted as %s with train_gpus=%v", back.Name(),
			bytes.Contains(buf.Bytes(), []byte("train_gpus")))
	}
}

func TestSaveLoadIGKW(t *testing.T) {
	ds := plantKernelDataset(gpu.A100, 4)
	ds.Merge(plantKernelDataset(gpu.A40, 4))
	ds.Merge(plantKernelDataset(gpu.GTX1080Ti, 4))
	m, err := FitIGKW(ds, []gpu.Spec{gpu.A100, gpu.A40, gpu.GTX1080Ti}, gpu.TitanRTX, 512)
	if err != nil {
		t.Fatal(err)
	}
	back := roundTrip(t, m)
	if back.GPUName() != "TITAN RTX" || back.Name() != "IGKW" {
		t.Fatalf("identity lost: %s on %q", back.Name(), back.GPUName())
	}
	samePrediction(t, m, back)
}

func TestSaveLoadLW(t *testing.T) {
	ds := plantKernelDataset(gpu.A100, 4)
	// Synthesize layer records from the kernel records.
	for _, r := range ds.Kernels {
		ds.Layers = append(ds.Layers, layerFromKernel(r))
	}
	m, err := FitLW(ds, "A100", 512)
	if err != nil {
		t.Fatal(err)
	}
	samePrediction(t, m, roundTrip(t, m))
}

func TestSaveLoadFile(t *testing.T) {
	ds := plantKernelDataset(gpu.A100, 4)
	m, err := FitKW(ds, "A100", 512)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "kw.json")
	if err := SaveFile(path, m); err != nil {
		t.Fatal(err)
	}
	back, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	samePrediction(t, m, back)
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage should error")
	}
	if _, err := Load(strings.NewReader(`{"kind":"mystery","version":1,"model":{}}`)); err == nil {
		t.Fatal("unknown kind should error")
	}
	if _, err := Load(strings.NewReader(`{"kind":"kw","version":99,"model":{}}`)); err == nil {
		t.Fatal("future version should error")
	}
}

// persistFixtures returns Save'd envelopes of a KW model fitted on
// ResNet-18's A100 measurements and of an IGKW model resolved for TITAN RTX
// from its A100, A40 and V100 measurements. Their kernel names are real, so
// every group_of key is a kernel ResNet-18 dispatches.
func persistFixtures(t testing.TB) (kw, igkw []byte) {
	t.Helper()
	train := []gpu.Spec{gpu.A100, gpu.A40, gpu.V100}
	opt := dataset.DefaultBuildOptions()
	opt.Batches = 4
	opt.Warmup = 1
	ds, _, err := dataset.Build([]*dnn.Network{zoo.MustResNet(18)}, train, opt)
	if err != nil {
		t.Fatal(err)
	}
	m, err := FitKW(ds, "A100", 512)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Groups) == 0 || len(m.Families) == 0 {
		t.Fatalf("fixture KW model has %d groups and %d families; the malformed cases need both",
			len(m.Groups), len(m.Families))
	}
	ig, err := FitIGKW(ds, train, gpu.TitanRTX, 512)
	if err != nil {
		t.Fatal(err)
	}
	save := func(p Predictor) []byte {
		var buf bytes.Buffer
		if err := Save(&buf, p); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	return save(m), save(ig)
}

// malformedKWCases plant one defect each into a KW envelope's model payload;
// want is a fragment of the error Load must return for it.
var malformedKWCases = []struct {
	name, want string
	plant      func(model map[string]any)
}{
	{"group_of beyond groups", "outside", func(model map[string]any) {
		for k := range model["group_of"].(map[string]any) {
			model["group_of"].(map[string]any)[k] = 1 << 20
		}
	}},
	{"negative group_of", "outside", func(model map[string]any) {
		for k := range model["group_of"].(map[string]any) {
			model["group_of"].(map[string]any)[k] = -1
		}
	}},
	{"group without kernels", "no kernels", func(model map[string]any) {
		model["groups"].([]any)[0].(map[string]any)["Kernels"] = []any{}
	}},
	{"unknown group driver", "unknown driver", func(model map[string]any) {
		model["groups"].([]any)[0].(map[string]any)["Driver"] = "bogus"
	}},
	{"unknown family driver", "unknown driver", func(model map[string]any) {
		for _, c := range model["families"].(map[string]any) {
			c.(map[string]any)["Driver"] = "bogus"
		}
	}},
	{"unknown class-fallback driver", "class_fallback", func(model map[string]any) {
		model["class_fallback"].(map[string]any)["bogus"] = map[string]any{}
	}},
	// The /modelz reproducer: slopes this large overflow every prediction
	// to +Inf, which the serve handlers cannot render as JSON.
	{"huge group slopes", "coefficient", func(model map[string]any) {
		for _, g := range model["groups"].([]any) {
			g.(map[string]any)["Line"].(map[string]any)["Slope"] = 1e300
		}
	}},
	{"huge family intercept", "coefficient", func(model map[string]any) {
		for _, c := range model["families"].(map[string]any) {
			c.(map[string]any)["Line"].(map[string]any)["Intercept"] = -1e300
		}
	}},
	{"huge class-fallback slope", "coefficient", func(model map[string]any) {
		for _, l := range model["class_fallback"].(map[string]any) {
			l.(map[string]any)["Slope"] = 1e280
		}
	}},
}

// plantEnvelope returns env with one malformed case planted in its payload.
func plantEnvelope(t testing.TB, env []byte, plant func(map[string]any)) []byte {
	t.Helper()
	var e struct {
		Kind    string         `json:"kind"`
		Version int            `json:"version"`
		Model   map[string]any `json:"model"`
	}
	if err := json.Unmarshal(env, &e); err != nil {
		t.Fatal(err)
	}
	plant(e.Model)
	out, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestLoadRejectsMalformedKW: a KW envelope whose structure would make
// prediction index out of range or misread a driver must fail Load, for the
// measured and the IGKW-resolved payload alike (one KW payload serves both).
func TestLoadRejectsMalformedKW(t *testing.T) {
	kw, igkw := persistFixtures(t)
	for _, env := range [][]byte{kw, igkw} {
		if _, err := Load(bytes.NewReader(env)); err != nil {
			t.Fatalf("well-formed fixture rejected: %v", err)
		}
	}
	for _, tc := range malformedKWCases {
		t.Run(tc.name, func(t *testing.T) {
			for i, env := range [][]byte{kw, igkw} {
				_, err := Load(bytes.NewReader(plantEnvelope(t, env, tc.plant)))
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("fixture %d: Load error %v, want one mentioning %q", i, err, tc.want)
				}
			}
		})
	}
}

// TestLoadRejectsHugeE2ELWCoefficients: the coefficient bound KW payloads
// get holds for the end-to-end and layer-wise envelopes too, whose
// predictions sum the same kind of terms.
func TestLoadRejectsHugeE2ELWCoefficients(t *testing.T) {
	for _, tc := range []struct {
		kind, model string
	}{
		{"e2e", `{"GPU":"A100","TrainBatch":512,"Line":{"Slope":1e300,"Intercept":0}}`},
		{"lw", `{"GPU":"A100","TrainBatch":512,"Lines":{},"Pooled":{"Slope":0,"Intercept":-1e300}}`},
		{"lw", `{"GPU":"A100","TrainBatch":512,"Lines":{"Conv2D":{"Slope":1e300}},"Pooled":{}}`},
	} {
		env := `{"kind":"` + tc.kind + `","version":1,"model":` + tc.model + `}`
		if _, err := Load(strings.NewReader(env)); err == nil || !strings.Contains(err.Error(), "coefficient") {
			t.Errorf("%s: Load error %v, want one naming the coefficient bound", env, err)
		}
	}
}

func TestSaveUnsupportedType(t *testing.T) {
	if err := Save(&bytes.Buffer{}, unsupportedPredictor{}); err == nil {
		t.Fatal("unsupported type should error")
	}
}

// unsupportedPredictor exercises Save's type guard.
type unsupportedPredictor struct{}

func (unsupportedPredictor) Name() string    { return "x" }
func (unsupportedPredictor) GPUName() string { return "x" }
func (unsupportedPredictor) PredictNetwork(*dnn.Network, int) (units.Seconds, error) {
	return 0, nil
}

// layerFromKernel synthesizes a layer record matching a kernel record.
func layerFromKernel(r dataset.KernelRecord) dataset.LayerRecord {
	return dataset.LayerRecord{
		Network: r.Network, GPU: r.GPU, BatchSize: r.BatchSize,
		LayerIndex: r.LayerIndex, Kind: r.LayerKind,
		FLOPs: r.LayerFLOPs, InputElems: r.LayerInputElems,
		OutputElems: r.LayerOutputElems, Seconds: r.Seconds,
	}
}
