package profiler

import (
	"fmt"
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

	if err := net.Infer(8); err != nil {
		t.Fatal(err)
	}
	p := &Profiler{Warmup: 2, Batches: 4}
	prep, err := p.Prepare(net, true)
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

// TestE2EOnlyPreparedMatchesDetail: a Prepared built without layer
// templates runs the identical simulation (same RNG stream, same E2ETime)
// as a detail one, and its trace carries the same header with nil Layers
// and no KernelSum.
func TestE2EOnlyPreparedMatchesDetail(t *testing.T) {
	for _, training := range []bool{false, true} {
		net := zoo.MustResNet(18)
		if err := net.Infer(8); err != nil {
			t.Fatal(err)
		}
		p := &Profiler{Device: sim.NewDefault(gpu.A100), Warmup: 2, Batches: 4, Training: training}
		full, err := p.Prepare(net, true)
		if err != nil {
			t.Fatal(err)
		}
		e2eOnly, err := p.Prepare(net, false)
		if err != nil {
			t.Fatal(err)
		}
		if len(e2eOnly.uniqIdx) != len(full.uniqIdx) {
			t.Fatalf("training %v: launch count %d, want %d", training, len(e2eOnly.uniqIdx), len(full.uniqIdx))
		}
		detail, err := p.ProfilePrepared(full)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.ProfilePrepared(e2eOnly)
		if err != nil {
			t.Fatal(err)
		}
		if got.Layers != nil {
			t.Fatalf("training %v: end-to-end-only trace carries %d layers", training, len(got.Layers))
		}
		want := *detail
		want.Layers, want.KernelSum = nil, 0
		if !reflect.DeepEqual(*got, want) {
			t.Fatalf("training %v: end-to-end-only trace header differs from the detail one:\n%+v\n%+v", training, *got, want)
		}
	}
}

// quickLabNetworks builds the quick experiment lab's network sample
// (bench.NewQuickLab): every sixth zoo network.
func quickLabNetworks() []*dnn.Network {
	builders := zoo.FullBuilders()
	nets := make([]*dnn.Network, 0, (len(builders)+5)/6)
	for i := 0; i < len(builders); i += 6 {
		nets = append(nets, builders[i]())
	}
	return nets
}

// TestRebatchedPrepareMatchesInfer: collection infers each network once and
// rebatches it in place, so the Prepared it reaches at every batch size
// must equal, field for field, the one a fresh inference at that batch
// gives — for every quick-lab network, in inference and training mode.
func TestRebatchedPrepareMatchesInfer(t *testing.T) {
	batches := []int{4, 64, 512}
	for _, training := range []bool{false, true} {
		re := &Profiler{Training: training}
		fresh := &Profiler{Training: training}
		for _, src := range quickLabNetworks() {
			net := src.Clone()
			for bi, b := range batches {
				reshape := net.Rebatch
				if bi == 0 {
					reshape = net.Infer
				}
				if err := reshape(b); err != nil {
					t.Fatalf("%s batch %d: %v", src.Name, b, err)
				}
				ref := src.Clone()
				if err := ref.Infer(b); err != nil {
					t.Fatal(err)
				}
				for _, detail := range []bool{false, true} {
					got, err := re.Prepare(net, detail)
					if err != nil {
						t.Fatal(err)
					}
					want, err := fresh.Prepare(ref, detail)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s batch %d training %v detail %v: Prepared.%s differs from a fresh inference",
							src.Name, b, training, detail, firstDiff(got, want))
					}
				}
			}
		}
	}
}

// firstDiff names the first field in which two Prepareds differ.
func firstDiff(a, b *Prepared) string {
	av, bv := reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem()
	for f := 0; f < av.NumField(); f++ {
		if fmt.Sprint(av.Field(f)) != fmt.Sprint(bv.Field(f)) {
			return av.Type().Field(f).Name
		}
	}
	return "(none printed)"
}

// TestPreparedSurvivesRebatch: a Prepared keeps none of the network's shape
// slices, so moving the network to other batch sizes after preparing it
// leaves what it profiles byte-identical.
func TestPreparedSurvivesRebatch(t *testing.T) {
	for _, training := range []bool{false, true} {
		net := zoo.MustResNet(18)
		if err := net.Infer(8); err != nil {
			t.Fatal(err)
		}
		p := &Profiler{Device: sim.NewDefault(gpu.A100), Warmup: 2, Batches: 4, Training: training}
		prep, err := p.Prepare(net, true)
		if err != nil {
			t.Fatal(err)
		}
		before, err := p.ProfilePrepared(prep)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range []int{64, 1} {
			if err := net.Rebatch(b); err != nil {
				t.Fatal(err)
			}
		}
		after, err := p.ProfilePrepared(prep)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(after, before) {
			t.Fatalf("training %v: a Prepared profiles differently after its network was rebatched", training)
		}
		if after.BatchSize != 8 {
			t.Fatalf("training %v: trace batch %d, want the prepared 8", training, after.BatchSize)
		}
	}

	// Prepare refuses a network without inferred shapes.
	if _, err := (&Profiler{}).Prepare(zoo.MustResNet(18), true); err == nil {
		t.Fatal("Prepare of an uninferred network succeeded")
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
