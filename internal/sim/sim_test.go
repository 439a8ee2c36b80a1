package sim

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/gpu"
	"repro/internal/kernels"
	"repro/internal/zoo"
)

// testKernel builds a representative main-compute kernel invocation.
func testKernel(name string, flops, bytes, outElems int64) kernels.Kernel {
	return kernels.Kernel{
		Name:             name,
		Class:            kernels.ClassOperation,
		FLOPs:            flops,
		BytesRead:        bytes / 2,
		BytesWritten:     bytes - bytes/2,
		LayerFLOPs:       flops,
		LayerInputElems:  outElems,
		LayerOutputElems: outElems,
	}
}

// kernelTime is one noisy measured duration of a kernel invocation: the
// device's base time times the profiler's lognormal noise factor,
// exp(N(0, σ²)) drawn from rnd (1 when σ ≤ 0).
func kernelTime(d *Device, k kernels.Kernel, rnd *rand.Rand) float64 {
	noise := 1.0
	if sigma := d.cfg.NoiseSigma; sigma > 0 {
		noise = math.Exp(rnd.NormFloat64() * sigma)
	}
	return d.BaseKernelTime(k) * noise
}

// memoryBound reports whether the kernel's roofline leg is the memory side
// on the device.
func memoryBound(d *Device, k kernels.Kernel) bool {
	compEff, bwEff := d.Efficiencies(k.Name)
	tc := float64(k.FLOPs) / (compEff * d.GPU.PeakFLOPS())
	tm := float64(k.Bytes()) / (bwEff * d.GPU.PeakBytesPerSec())
	return tm >= tc
}

func TestBaseKernelTimeDeterministic(t *testing.T) {
	d1 := NewDefault(gpu.A100)
	d2 := NewDefault(gpu.A100)
	k := testKernel("winograd_gemm_128x64", 1e9, 1e8, 1e6)
	if d1.BaseKernelTime(k) != d2.BaseKernelTime(k) {
		t.Fatal("BaseKernelTime is not deterministic")
	}
}

func TestBaseKernelTimePositiveFinite(t *testing.T) {
	d := NewDefault(gpu.V100)
	f := func(flopsRaw, bytesRaw uint32, outRaw uint16) bool {
		k := testKernel("implicit_gemm_64x64",
			int64(flopsRaw), int64(bytesRaw)+1, int64(outRaw)+1)
		got := d.BaseKernelTime(k)
		return got > 0 && !math.IsInf(got, 0) && !math.IsNaN(got)
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestMuchMoreWorkTakesLonger(t *testing.T) {
	// Size-bucket jitter and curvature allow small non-monotonicities, but
	// a 64× larger problem must always take longer.
	d := NewDefault(gpu.A100)
	small := testKernel("implicit_gemm_128x64", 1e9, 1e8, 1e6)
	big := testKernel("implicit_gemm_128x64", 64e9, 64e8, 64e6)
	ts, tb := d.BaseKernelTime(small), d.BaseKernelTime(big)
	if tb <= ts {
		t.Fatalf("64× work: %v ≤ %v", tb, ts)
	}
}

func TestOverheadFloorsTinyKernels(t *testing.T) {
	d := NewDefault(gpu.A100)
	tiny := testKernel("elementwise_relu", 10, 40, 10)
	got := d.BaseKernelTime(tiny)
	floor := kernelOverheadUS * 1e-6
	if got < floor {
		t.Fatalf("tiny kernel time %v below the launch overhead %v", got, floor)
	}
}

func TestEfficienciesInRange(t *testing.T) {
	for _, g := range gpu.All() {
		d := NewDefault(g)
		for _, name := range []string{"winograd_gemm_128x128", "bn_fwd_inference",
			"elementwise_relu", "depthwise_conv_k3_s1", "sgemm_256x128"} {
			c, b := d.Efficiencies(name)
			if c <= 0 || c >= 1 {
				t.Errorf("%s on %s: computeEff = %v", name, g.Name, c)
			}
			if b <= 0 || b >= 1 {
				t.Errorf("%s on %s: bwEff = %v", name, g.Name, b)
			}
		}
	}
}

// TestO6BandwidthEfficiencyStability verifies the mechanism behind
// observation O6: for a fixed kernel, bandwidth efficiency varies far less
// across GPUs (after removing the architecture factor) than it varies across
// kernels on one GPU.
func TestO6BandwidthEfficiencyStability(t *testing.T) {
	kernelsUnderTest := []string{
		"winograd_gemm_128x128", "implicit_gemm_64x64", "bn_fwd_inference",
		"elementwise_relu", "pooling_fwd_max", "sgemm_128x128",
	}
	// Use same-architecture GPUs to isolate the per-GPU jitter.
	gpus := []gpu.Spec{gpu.A100, gpu.A40, gpu.RTXA5000}

	var acrossGPU, acrossKernel []float64
	for _, k := range kernelsUnderTest {
		var effs []float64
		for _, g := range gpus {
			_, b := NewDefault(g).Efficiencies(k)
			effs = append(effs, b)
		}
		acrossGPU = append(acrossGPU, spread(effs))
	}
	d := NewDefault(gpu.A100)
	var effs []float64
	for _, k := range kernelsUnderTest {
		_, b := d.Efficiencies(k)
		effs = append(effs, b)
	}
	acrossKernel = append(acrossKernel, spread(effs))

	if mean(acrossGPU) >= mean(acrossKernel) {
		t.Fatalf("bwEff spread across GPUs (%v) should be below spread across kernels (%v)",
			mean(acrossGPU), mean(acrossKernel))
	}
}

func spread(xs []float64) float64 {
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return hi / lo
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func TestSeedChangesUniverse(t *testing.T) {
	a := New(gpu.A100, Config{Seed: 0})
	b := New(gpu.A100, Config{Seed: 1})
	k := testKernel("winograd_gemm_128x64", 1e9, 1e8, 1e6)
	if a.BaseKernelTime(k) == b.BaseKernelTime(k) {
		t.Fatal("different seeds should give different device behaviour")
	}
}

func TestKernelTimeNoiseAveragesOut(t *testing.T) {
	d := NewDefault(gpu.A100)
	k := testKernel("implicit_gemm_128x128", 1e10, 1e9, 1e7)
	base := d.BaseKernelTime(k)
	rnd := rand.New(rand.NewSource(5))
	var sum float64
	const n = 4000
	for i := 0; i < n; i++ {
		sum += kernelTime(d, k, rnd)
	}
	avg := sum / n
	if math.Abs(avg-base)/base > 0.01 {
		t.Fatalf("noisy average %v deviates from base %v", avg, base)
	}
}

func TestWallTimePipelineOverlap(t *testing.T) {
	d := NewDefault(gpu.A100)
	durations := []float64{1e-3, 1e-3, 1e-3, 1e-3}
	wall := d.WallTime(durations)
	var sum float64
	for _, t := range durations {
		sum += t
	}
	floor := batchFloorUS * 1e-6
	if wall >= sum+floor {
		t.Fatalf("wall %v should be below serialized sum %v (pipelining)", wall, sum+floor)
	}
	if wall <= sum/2 {
		t.Fatalf("wall %v implausibly small vs sum %v", wall, sum)
	}
}

func TestWallTimeFloor(t *testing.T) {
	d := NewDefault(gpu.A100)
	if wall := d.WallTime(nil); wall != batchFloorUS*1e-6 {
		t.Fatalf("empty wall = %v", wall)
	}
	// Tiny kernels can never make the batch faster than the CPU floor.
	tiny := make([]float64, 100)
	for i := range tiny {
		tiny[i] = 1e-7
	}
	if wall := d.WallTime(tiny); wall < batchFloorUS*1e-6 {
		t.Fatalf("wall %v below scheduling floor", wall)
	}
}

func TestFitsMemory(t *testing.T) {
	net := zoo.MustResNet(50)
	if err := net.Infer(512); err != nil {
		t.Fatal(err)
	}
	if !NewDefault(gpu.A100).FitsMemory(net) {
		t.Fatal("resnet50@512 should fit in 40 GB")
	}
	if NewDefault(gpu.QuadroP620).FitsMemory(net) {
		t.Fatal("resnet50@512 should not fit in 2 GB")
	}
}

func TestMemoryBoundConsistency(t *testing.T) {
	d := NewDefault(gpu.A100)
	// Pure data movement: memory bound by construction.
	mem := testKernel("elementwise_relu", 1, 1e9, 1e8)
	if !memoryBound(d, mem) {
		t.Fatal("byte-heavy kernel should be memory bound")
	}
	// Enormous arithmetic intensity: compute bound.
	comp := testKernel("sgemm_256x128", 1e13, 1e6, 1e6)
	if memoryBound(d, comp) {
		t.Fatal("FLOP-heavy kernel should be compute bound")
	}
}

func TestConfigDefaults(t *testing.T) {
	if cfg := New(gpu.A100, Config{}).Config(); cfg != (Config{NoiseSigma: 0.03}) {
		t.Fatalf("zero config should resolve to the default noise: %+v", cfg)
	}
	// Set fields are kept as given.
	if cfg := New(gpu.A100, Config{Seed: 3, NoiseSigma: 0.5}).Config(); cfg != (Config{Seed: 3, NoiseSigma: 0.5}) {
		t.Fatalf("override mishandled: %+v", cfg)
	}
}

func TestArchFactorsOrdered(t *testing.T) {
	// Newer architectures must not be less efficient than older ones.
	if archComputeFactor("Ampere") < archComputeFactor("Pascal") {
		t.Fatal("compute factors inverted")
	}
	if archMemFactor("Ampere") < archMemFactor("Pascal") {
		t.Fatal("memory factors inverted")
	}
	if archSensitivity("Ampere") != 0 {
		t.Fatal("reference architecture should have zero sensitivity")
	}
}

func TestHash01Range(t *testing.T) {
	d := NewDefault(gpu.A100)
	f := func(s string) bool {
		v := d.hash01(s)
		return v >= 0 && v < 1
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(13))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestKernelTimesLinearWithinFamily verifies the central dataset property
// the paper's models rely on (O5): within a kernel family, scaling the
// problem k× scales time roughly k× (modulo the bounded geometry and
// curvature modulations).
func TestKernelTimesLinearWithinFamily(t *testing.T) {
	d := NewDefault(gpu.A100)
	base := testKernel("implicit_gemm_128x128", 2e9, 2e8, 2e6)
	t1 := d.BaseKernelTime(base)
	for _, k := range []int64{2, 4, 8} {
		scaled := testKernel("implicit_gemm_128x128", 2e9*k, 2e8*k, 2e6*k)
		tk := d.BaseKernelTime(scaled)
		ratio := tk / (t1 * float64(k))
		if ratio < 0.5 || ratio > 2.0 {
			t.Fatalf("scaling %d×: time ratio %v strays too far from linear", k, ratio)
		}
	}
}

var sinkTime float64

func BenchmarkBaseKernelTime(b *testing.B) {
	d := NewDefault(gpu.A100)
	k := testKernel("winograd_gemm_128x128", 1e9, 1e8, 1e6)
	for i := 0; i < b.N; i++ {
		sinkTime = d.BaseKernelTime(k)
	}
}

// quickLabInvocations returns every distinct kernel invocation the quick
// experiment lab's networks (every sixth zoo network) launch, in inference
// and training mode, at batch sizes 4, 64 and 512.
func quickLabInvocations(t *testing.T) []kernels.Kernel {
	t.Helper()
	seen := map[kernels.Kernel]bool{}
	var out []kernels.Kernel
	var ks []kernels.Kernel
	var layerIdx []int
	builders := zoo.FullBuilders()
	for i := 0; i < len(builders); i += 6 {
		n := builders[i]()
		for _, batch := range []int{4, 64, 512} {
			if err := n.Infer(batch); err != nil {
				t.Fatal(err)
			}
			for _, training := range []bool{false, true} {
				ks, layerIdx = kernels.AppendNetwork(ks[:0], layerIdx[:0], n, training)
				for _, k := range ks {
					if !seen[k] {
						seen[k] = true
						out = append(out, k)
					}
				}
			}
		}
	}
	return out
}

// TestNameMemoMatchesFreshDevice: a device answers from its per-name memo
// once it has seen a kernel name, and that answer must be bit-identical to
// a fresh device's, for every kernel invocation of the quick lab, on an
// architecture with and one without the per-family memory penalty.
func TestNameMemoMatchesFreshDevice(t *testing.T) {
	invocations := quickLabInvocations(t)
	for _, g := range []gpu.Spec{gpu.A100, gpu.TitanRTX} {
		warm := NewDefault(g)
		for _, k := range invocations {
			warm.BaseKernelTime(k)
		}
		for _, k := range invocations {
			fresh := NewDefault(g)
			if got, want := warm.BaseKernelTime(k), fresh.BaseKernelTime(k); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s %+v: warm BaseKernelTime %v, fresh %v", g.Name, k, got, want)
			}
			wc, wb := warm.Efficiencies(k.Name)
			fc, fb := NewDefault(g).Efficiencies(k.Name)
			if math.Float64bits(wc) != math.Float64bits(fc) || math.Float64bits(wb) != math.Float64bits(fb) {
				t.Fatalf("%s %s: warm Efficiencies (%v, %v), fresh (%v, %v)", g.Name, k.Name, wc, wb, fc, fb)
			}
		}
	}
}

// TestDeviceConcurrentUse: collection workers share one Device per GPU, so
// goroutines filling its name memo at once must each get the answers a
// device used by one goroutine gives.
func TestDeviceConcurrentUse(t *testing.T) {
	net := zoo.MustResNet(50)
	if err := net.Infer(64); err != nil {
		t.Fatal(err)
	}
	ks, _ := kernels.AppendNetwork(nil, nil, net, true)
	ref := NewDefault(gpu.V100)
	want := make([]float64, len(ks))
	for i, k := range ks {
		want[i] = ref.BaseKernelTime(k)
	}
	shared := NewDefault(gpu.V100)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each goroutine starts at its own offset, so first uses of a
			// name race with each other.
			for j := range ks {
				i := (j + g*len(ks)/8) % len(ks)
				if got := shared.BaseKernelTime(ks[i]); math.Float64bits(got) != math.Float64bits(want[i]) {
					t.Errorf("goroutine %d, %s: BaseKernelTime %v, want %v", g, ks[i].Name, got, want[i])
					return
				}
				shared.Efficiencies(ks[i].Name)
			}
		}()
	}
	wg.Wait()
}
