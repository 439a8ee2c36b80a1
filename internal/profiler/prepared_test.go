package profiler

import (
	"reflect"
	"testing"

	"repro/internal/dnn"
	"repro/internal/gpu"
	"repro/internal/sim"
	"repro/internal/zoo"
)

// TestPreparedReplayMatchesProfile proves the collection fast path's core
// contract: preparing a (network, batch) once and replaying it across
// devices produces traces identical to a fresh Profile per device — the
// per-run RNG seed depends only on (network, GPU, batch), not on profiler
// reuse or device order.
func TestPreparedReplayMatchesProfile(t *testing.T) {
	net := zoo.MustResNet(18)
	devA := sim.NewDefault(gpu.A100)
	devB := sim.NewDefault(gpu.V100)

	p := &Profiler{Warmup: 2, Batches: 4}
	prep, err := p.Prepare(net, 8, true)
	if err != nil {
		t.Fatal(err)
	}
	p.Device = devA
	trA, err := p.ProfilePrepared(prep)
	if err != nil {
		t.Fatal(err)
	}
	p.Device = devB
	trB, err := p.ProfilePrepared(prep)
	if err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		dev  *sim.Device
		want *Trace
	}{{sim.NewDefault(gpu.A100), trA}, {sim.NewDefault(gpu.V100), trB}} {
		fresh := &Profiler{Device: c.dev, Warmup: 2, Batches: 4}
		tr, err := fresh.Profile(net, 8)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(tr, c.want) {
			t.Fatalf("replayed trace on %s differs from a fresh Profile", c.dev.GPU.Name)
		}
	}
}

// TestProfileE2EPreparedMatchesDetail: the E2E-only path runs the identical
// simulation (same RNG stream, same E2ETime) and only skips assembling the
// per-kernel trace.
func TestProfileE2EPreparedMatchesDetail(t *testing.T) {
	net := zoo.MustResNet(18)
	p := &Profiler{Device: sim.NewDefault(gpu.A100), Warmup: 2, Batches: 4}
	prep, err := p.Prepare(net, 8, true)
	if err != nil {
		t.Fatal(err)
	}
	detail, err := p.ProfilePrepared(prep)
	if err != nil {
		t.Fatal(err)
	}
	e2e, err := p.ProfileE2EPrepared(prep)
	if err != nil {
		t.Fatal(err)
	}
	if e2e.E2ETime != detail.E2ETime {
		t.Fatalf("E2ETime differs: %v vs %v", e2e.E2ETime, detail.E2ETime)
	}
	if e2e.Layers != nil {
		t.Fatal("E2E-only trace should carry no layer detail")
	}
	if e2e.Network != detail.Network || e2e.GPU != detail.GPU || e2e.BatchSize != detail.BatchSize {
		t.Fatal("trace identity differs between the two paths")
	}
}

// TestE2EOnlyPreparedRefusesDetail: a Prepared built without layer
// templates replays the identical end-to-end simulation, and the detail
// path refuses it with an error instead of returning a trace with no
// layers.
func TestE2EOnlyPreparedRefusesDetail(t *testing.T) {
	net := zoo.MustResNet(18)
	p := &Profiler{Device: sim.NewDefault(gpu.A100), Warmup: 2, Batches: 4}
	full, err := p.Prepare(net, 8, true)
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.ProfileE2EPrepared(full)
	if err != nil {
		t.Fatal(err)
	}
	e2eOnly, err := p.Prepare(net, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	if e2eOnly.Kernels() != full.Kernels() {
		t.Fatalf("launch count %d, want %d", e2eOnly.Kernels(), full.Kernels())
	}
	got, err := p.ProfileE2EPrepared(e2eOnly)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("end-to-end trace differs without layer templates:\n%+v\n%+v", got, want)
	}
	if tr, err := p.ProfilePrepared(e2eOnly); err == nil {
		t.Fatalf("detail trace from a Prepared without layer templates: %d layers, want an error", len(tr.Layers))
	}
}

// TestProfileMetricsSuccessOnly: profiler_profiles_total counts completed
// profiles only; failed preparation and OOM runs land in their own counters.
func TestProfileMetricsSuccessOnly(t *testing.T) {
	profiles := metricProfiles.Value()
	failures := metricProfileFailures.Value()
	ooms := metricProfileOOMs.Value()

	p := &Profiler{Device: sim.NewDefault(gpu.A100), Warmup: 2, Batches: 2}
	if _, err := p.Profile(zoo.MustResNet(18), 8); err != nil {
		t.Fatal(err)
	}
	if got := metricProfiles.Value() - profiles; got != 1 {
		t.Fatalf("success incremented profiles by %d, want 1", got)
	}

	bad := dnn.New("bad", "Test", dnn.TaskImageClassification, dnn.Shape{3, 8, 8})
	bad.Conv(dnn.NetworkInput, 7, 3, 1, 1, 0) // channel mismatch
	if _, err := p.Profile(bad, 4); err == nil {
		t.Fatal("invalid network should error")
	}
	if got := metricProfiles.Value() - profiles; got != 1 {
		t.Fatalf("failed run leaked into profiles_total (now +%d)", got)
	}
	if got := metricProfileFailures.Value() - failures; got != 1 {
		t.Fatalf("failures_total moved by %d, want 1", got)
	}

	oom := &Profiler{Device: sim.NewDefault(gpu.QuadroP620), Warmup: 2, Batches: 2}
	if _, err := oom.Profile(zoo.MustVGG(16, false), 512); err == nil {
		t.Fatal("expected OOM")
	}
	if got := metricProfiles.Value() - profiles; got != 1 {
		t.Fatalf("OOM run leaked into profiles_total (now +%d)", got)
	}
	if got := metricProfileOOMs.Value() - ooms; got != 1 {
		t.Fatalf("oom_total moved by %d, want 1", got)
	}
}

// BenchmarkProfile gates the profiler hot loop (the bench_compare gate for
// this package): one full detail profile of ResNet-50 at the training batch
// size with the reduced measurement protocol.
func BenchmarkProfile(b *testing.B) {
	net := zoo.MustResNet(50)
	p := &Profiler{Device: sim.NewDefault(gpu.A100), Warmup: 2, Batches: 8}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Profile(net, 512); err != nil {
			b.Fatal(err)
		}
	}
}
