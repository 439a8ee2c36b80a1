package profiler

import (
	"errors"
	"math"
	"testing"

	"repro/internal/dnn"
	"repro/internal/gpu"
	"repro/internal/kernels"
	"repro/internal/sim"
	"repro/internal/zoo"
)

func profileResNet18(t *testing.T, g gpu.Spec, batch int) *Trace {
	t.Helper()
	net := zoo.MustResNet(18)
	tr, err := (&Profiler{Device: sim.NewDefault(g), Warmup: 2, Batches: 5}).Profile(net, batch)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// kernelEvents returns all kernel events of an inference trace across
// layers, in launch order.
func kernelEvents(tr *Trace) []KernelEvent {
	var out []KernelEvent
	for _, l := range tr.Layers {
		out = append(out, l.Kernels...)
	}
	return out
}

func TestTraceStructure(t *testing.T) {
	tr := profileResNet18(t, gpu.A100, 8)
	if tr.Network != "resnet18" || tr.GPU != "A100" || tr.BatchSize != 8 {
		t.Fatalf("trace identity: %s/%s/%d", tr.Network, tr.GPU, tr.BatchSize)
	}
	if tr.TotalFLOPs <= 0 {
		t.Fatal("TotalFLOPs not set")
	}
	if len(tr.Layers) == 0 {
		t.Fatal("no layer records")
	}
	net := zoo.MustResNet(18)
	if len(tr.Layers) != len(net.Layers) {
		t.Fatalf("layer record count %d != network layer count %d", len(tr.Layers), len(net.Layers))
	}
}

func TestLayerKernelMapping(t *testing.T) {
	// The trace must reproduce Figure 2's property: every kernel event links
	// back to the layer that launched it, and layer durations are the sum of
	// their kernels.
	tr := profileResNet18(t, gpu.A100, 8)
	var kernelSum float64
	for _, l := range tr.Layers {
		var laySum float64
		for _, ev := range l.Kernels {
			if ev.LayerIndex != l.Index {
				t.Fatalf("kernel %q links to layer %d, recorded under %d", ev.Name, ev.LayerIndex, l.Index)
			}
			if ev.Duration <= 0 {
				t.Fatalf("kernel %q has non-positive duration", ev.Name)
			}
			laySum += ev.Duration
		}
		if len(l.Kernels) > 0 && math.Abs(laySum-l.Duration)/l.Duration > 1e-9 {
			t.Fatalf("layer %d duration %v != kernel sum %v", l.Index, l.Duration, laySum)
		}
		kernelSum += laySum
	}
	if math.Abs(kernelSum-tr.KernelSum)/tr.KernelSum > 1e-9 {
		t.Fatalf("KernelSum %v != Σ layers %v", tr.KernelSum, kernelSum)
	}
}

func TestKernelStartsMonotone(t *testing.T) {
	tr := profileResNet18(t, gpu.A100, 8)
	events := kernelEvents(tr)
	for i := 1; i < len(events); i++ {
		if events[i].Start < events[i-1].Start {
			t.Fatalf("event %d starts before its predecessor", i)
		}
	}
}

func TestE2EBelowKernelSum(t *testing.T) {
	// Pipelining means measured wall time is below the sum of individually
	// measured kernel durations (minus the small batch floor).
	tr := profileResNet18(t, gpu.A100, 64)
	if tr.E2ETime >= tr.KernelSum*1.05 {
		t.Fatalf("E2E %v should not exceed kernel sum %v by much", tr.E2ETime, tr.KernelSum)
	}
	if tr.E2ETime <= tr.KernelSum*0.5 {
		t.Fatalf("E2E %v implausibly below kernel sum %v", tr.E2ETime, tr.KernelSum)
	}
}

func TestDeterministicTraces(t *testing.T) {
	a := profileResNet18(t, gpu.A100, 8)
	b := profileResNet18(t, gpu.A100, 8)
	if a.E2ETime != b.E2ETime || a.KernelSum != b.KernelSum {
		t.Fatal("profiling is not reproducible")
	}
}

func TestDifferentBatchDifferentSeed(t *testing.T) {
	a := profileResNet18(t, gpu.A100, 8)
	b := profileResNet18(t, gpu.A100, 16)
	if b.E2ETime <= a.E2ETime {
		t.Fatalf("doubling the batch should increase time: %v vs %v", a.E2ETime, b.E2ETime)
	}
}

func TestOutOfMemory(t *testing.T) {
	net := zoo.MustVGG(16, false)
	_, err := (&Profiler{Device: sim.NewDefault(gpu.QuadroP620), Warmup: 2, Batches: 2}).Profile(net, 512)
	if !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
}

func TestAveragingReducesNoise(t *testing.T) {
	// With more measured batches the averaged E2E approaches the noiseless
	// assembly; compare deviation across two measurement protocols.
	net := zoo.MustResNet(18)
	dev := sim.NewDefault(gpu.A100)

	// Noise-free reference: σ = 0 device.
	quiet := sim.New(gpu.A100, sim.Config{NoiseSigma: -1})
	ref, err := (&Profiler{Device: quiet, Warmup: 2, Batches: 1}).Profile(net, 8)
	if err != nil {
		t.Fatal(err)
	}

	few, err := (&Profiler{Device: dev, Warmup: 2, Batches: 2}).Profile(net, 8)
	if err != nil {
		t.Fatal(err)
	}
	many, err := (&Profiler{Device: dev, Warmup: 2, Batches: 60}).Profile(net, 8)
	if err != nil {
		t.Fatal(err)
	}
	devFew := math.Abs(few.KernelSum-ref.KernelSum) / ref.KernelSum
	devMany := math.Abs(many.KernelSum-ref.KernelSum) / ref.KernelSum
	// Individual draws are random, so compare against absolute budgets: the
	// σ=3 % per-invocation noise must average below 1 % over 60 batches and
	// below 5 % over 2.
	if devMany > 0.01 {
		t.Fatalf("60-batch average deviates %.3f%% from noiseless", devMany*100)
	}
	if devFew > 0.05 {
		t.Fatalf("2-batch average deviates %.3f%% from noiseless", devFew*100)
	}
}

func TestProfileErrors(t *testing.T) {
	p := New(sim.NewDefault(gpu.A100))
	net := zoo.MustResNet(18)
	if _, err := p.Profile(net, 0); err == nil {
		t.Fatal("batch 0 should error")
	}
	bad := dnn.New("bad", "Test", dnn.TaskImageClassification, dnn.Shape{3, 8, 8})
	bad.Conv(dnn.NetworkInput, 7, 3, 1, 1, 0) // channel mismatch
	if _, err := p.Profile(bad, 4); err == nil {
		t.Fatal("invalid network should error")
	}
}

func TestKernelEventFeatures(t *testing.T) {
	tr := profileResNet18(t, gpu.A100, 8)
	for _, ev := range kernelEvents(tr) {
		if ev.Name == "" || ev.Name != ev.Kernel.Name {
			t.Fatalf("event name mismatch: %q vs %q", ev.Name, ev.Kernel.Name)
		}
		if ev.Kernel.LayerInputElems <= 0 || ev.Kernel.LayerOutputElems <= 0 {
			t.Fatalf("kernel %q missing driver features", ev.Name)
		}
	}
}

func TestViewLayersHaveNoKernels(t *testing.T) {
	tr := profileResNet18(t, gpu.A100, 8)
	net := zoo.MustResNet(18)
	if err := net.Infer(8); err != nil {
		t.Fatal(err)
	}
	for i, l := range net.Layers {
		wantKernels := len(kernels.ForLayer(l))
		if got := len(tr.Layers[i].Kernels); got != wantKernels {
			t.Fatalf("layer %d (%s): %d kernel events, want %d", i, l.Kind, got, wantKernels)
		}
	}
}
