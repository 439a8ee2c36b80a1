package core

import (
	"bytes"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/zoo"
)

// The golden determinism contract: building the dataset, fitting the KW
// model, serializing the model and compiling a prediction plan must produce
// byte-identical artifacts regardless of GOMAXPROCS. This is the end-to-end
// guarantee the detrange invariant (sorted map iteration around float
// folds) exists to protect — if any fitting path ranged a map while
// accumulating, these bytes would differ between runs and across
// parallelism levels.

// goldenArtifacts runs the full pipeline at the given parallelism and
// returns the serialized model bytes and an exact textual dump of the
// compiled plan.
func goldenArtifacts(t *testing.T, procs int) (model, plan []byte) {
	t.Helper()
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)

	ds := buildSampleDataset(t, false)
	m, err := FitKW(ds, "A100", 512)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := Save(&buf, m); err != nil {
		t.Fatal(err)
	}

	net := zoo.MustResNet(18)
	p, err := m.CompilePlan(net)
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), dumpPlan(p)
}

// dumpPlan renders every segment of a compiled plan with exact (hexadecimal
// float) coefficient bits, so two dumps are equal iff the plans are
// bit-identical.
func dumpPlan(p *Plan) []byte {
	var out bytes.Buffer
	out.WriteString(p.Network)
	out.WriteByte(' ')
	out.WriteString(p.GPU)
	out.WriteByte('\n')
	for i, end := range p.entryEnd {
		start := int32(0)
		if i > 0 {
			start = p.entryEnd[i-1]
		}
		for _, seg := range p.segs[start:end] {
			out.WriteString(strconv.Itoa(seg.minBatch))
			out.WriteByte(' ')
			out.WriteString(strconv.FormatInt(seg.xPer, 10))
			out.WriteByte(' ')
			out.WriteString(strconv.FormatInt(seg.xConst, 10))
			out.WriteByte(' ')
			out.WriteString(strconv.FormatFloat(seg.line.Slope, 'x', -1, 64))
			out.WriteByte(' ')
			out.WriteString(strconv.FormatFloat(seg.line.Intercept, 'x', -1, 64))
			out.WriteByte('\n')
		}
	}
	return out.Bytes()
}

func TestGoldenDeterminismAcrossGOMAXPROCS(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline build")
	}
	model1, plan1 := goldenArtifacts(t, 1)
	procs := runtime.NumCPU()
	if procs < 4 {
		procs = 4
	}
	model2, plan2 := goldenArtifacts(t, procs)

	if !bytes.Equal(model1, model2) {
		t.Errorf("serialized model differs between GOMAXPROCS=1 and GOMAXPROCS=%d (%d vs %d bytes)",
			procs, len(model1), len(model2))
	}
	if !bytes.Equal(plan1, plan2) {
		t.Errorf("compiled plan differs between GOMAXPROCS=1 and GOMAXPROCS=%d:\n%s\nvs\n%s",
			procs, plan1, plan2)
	}
	if len(plan1) == 0 || bytes.Count(plan1, []byte{'\n'}) < 2 {
		t.Fatalf("plan dump implausibly small: %q", plan1)
	}

	// Same process, same GOMAXPROCS, fresh run: still identical (guards
	// against map-order luck making the first comparison pass).
	model3, plan3 := goldenArtifacts(t, procs)
	if !bytes.Equal(model2, model3) {
		t.Error("serialized model differs between identical runs")
	}
	if !bytes.Equal(plan2, plan3) {
		t.Error("compiled plan differs between identical runs")
	}
}
