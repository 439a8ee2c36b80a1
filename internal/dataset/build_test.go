package dataset

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/dnn"
	"repro/internal/gpu"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/zoo"
)

// smallOpt is the compact collection protocol the build tests share.
func smallOpt() BuildOptions {
	opt := DefaultBuildOptions()
	opt.Batches = 2
	opt.Warmup = 1
	opt.E2EBatchSizes = []int{4, 64}
	opt.DetailBatchSize = 64
	return opt
}

func smallNets() []*dnn.Network {
	return []*dnn.Network{
		zoo.MustResNet(18),
		zoo.MustVGG(11, false),
		zoo.StandardMobileNetV2(),
		zoo.MustDenseNet(121),
	}
}

// TestBuildPanicReturnsError is the regression test for the worker-deadlock
// fix: a panic while collecting one network must surface as an error from
// Build — not hang the remaining workers on the jobs channel or crash the
// process. The nil layer pointer panics inside collectNetwork's recover
// scope (during Clone/Infer).
func TestBuildPanicReturnsError(t *testing.T) {
	bad := zoo.MustResNet(18)
	bad.Name = "bad-panics"
	bad.Layers = append(bad.Layers, nil)
	nets := append(smallNets(), bad)

	opt := smallOpt()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2)) // two collection workers

	done := make(chan struct{})
	var err error
	go func() {
		defer close(done)
		_, _, err = Build(nets, []gpu.Spec{gpu.A100}, opt)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Build deadlocked after a collection panic")
	}
	if err == nil {
		t.Fatal("Build swallowed the collection panic")
	}
	if !strings.Contains(err.Error(), "panic") || !strings.Contains(err.Error(), "bad-panics") {
		t.Fatalf("err = %v, want a panic error naming the network", err)
	}
}

// TestBuildErrorDrainsJobs feeds more erroring networks than workers: every
// worker must still drain the (buffered) jobs channel and Build must return
// the first error in network order.
func TestBuildErrorDrainsJobs(t *testing.T) {
	mkBad := func(name string) *dnn.Network {
		n := dnn.New(name, "Test", dnn.TaskImageClassification, dnn.Shape{3, 8, 8})
		n.Conv(dnn.NetworkInput, 7, 3, 1, 1, 0) // channel mismatch: Infer errors
		return n
	}
	nets := []*dnn.Network{mkBad("bad0"), mkBad("bad1"), mkBad("bad2"), mkBad("bad3")}
	opt := smallOpt()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2)) // two collection workers
	done := make(chan struct{})
	var err error
	go func() {
		defer close(done)
		_, _, err = Build(nets, []gpu.Spec{gpu.A100}, opt)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Build deadlocked on the error path")
	}
	if err == nil || !strings.Contains(err.Error(), `network "bad0"`) {
		t.Fatalf("err = %v, want the first network's error", err)
	}
}

// TestBuildPerGPUMatchesFilterGPU proves the per-device assembly contract:
// BuildPerGPU's parts are byte-identical to filtering the combined Build.
func TestBuildPerGPUMatchesFilterGPU(t *testing.T) {
	opt := smallOpt()
	gpus := []gpu.Spec{gpu.A100, gpu.TitanRTX}

	combined, repA, err := Build(smallNets(), gpus, opt)
	if err != nil {
		t.Fatal(err)
	}
	parts, repB, err := BuildPerGPU(smallNets(), gpus, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(repA, repB) {
		t.Fatalf("reports differ: %+v vs %+v", repA, repB)
	}
	for i, g := range gpus {
		want := combined.FilterGPU(g.Name)
		if !reflect.DeepEqual(parts[i], want) {
			t.Fatalf("BuildPerGPU part %d (%s) differs from Build+FilterGPU", i, g.Name)
		}
	}
}

// TestBuildDedupMatchesClean proves collection-time deduplication is
// byte-identical to a serial Clean of the built result — on the structural
// fast path (distinct batch sizes), on the generic-cleaner fallback
// (repeated batch sizes), and with a noise-free device where exact duplicate
// kernel durations actually occur.
func TestBuildDedupMatchesClean(t *testing.T) {
	run := func(t *testing.T, nets []*dnn.Network, opt BuildOptions, wantDuplicates bool) {
		gpus := []gpu.Spec{gpu.A100, gpu.V100}
		plain, _, err := Build(nets, gpus, opt)
		if err != nil {
			t.Fatal(err)
		}
		if dropped := plain.Clean(); wantDuplicates && dropped == 0 {
			t.Fatal("fixture produced no duplicates; the dedup path is not exercised")
		}

		opt.Dedup = true
		deduped, _, err := Build(nets, gpus, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain, deduped) {
			t.Fatal("Dedup build differs from Build+Clean")
		}
	}

	t.Run("distinct-batches", func(t *testing.T) { run(t, smallNets(), smallOpt(), false) })

	t.Run("repeated-batches", func(t *testing.T) {
		// Degenerate options: the detail batch size appears twice, so whole
		// duplicate record sets are emitted and the structural fast path does
		// not apply — the generic cleaner fallback must handle it.
		opt := smallOpt()
		opt.E2EBatchSizes = []int{64, 64}
		run(t, smallNets(), opt, true)
	})

	t.Run("noise-free", func(t *testing.T) {
		// σ<0 disables measurement noise; durations are then fully
		// deterministic, the hardest setting for accidental divergence
		// between the two dedup implementations.
		opt := smallOpt()
		opt.SimConfig = sim.Config{NoiseSigma: -1}
		run(t, smallNets(), opt, false)
	})
}

// TestDedupKernelGroups exercises the structural dedup's drop path directly:
// the current kernel enumeration never emits byte-equal launches within one
// layer, so this is the safety net's only coverage. The result must match
// the generic Clean on the same records.
func TestDedupKernelGroups(t *testing.T) {
	rec := func(layer int, name string, secs float64) KernelRecord {
		return KernelRecord{
			Network: "n", GPU: "g", BatchSize: 64, LayerIndex: layer,
			LayerKind: "Conv2D", Kernel: name, Seconds: units.Seconds(secs),
		}
	}
	recs := []KernelRecord{
		rec(0, "a", 1), rec(0, "a", 1), // duplicate within the group
		rec(0, "a", 2),                 // same name, different duration: kept
		rec(1, "a", 1),                 // same record in a NEW group: kept
		rec(1, "b", 1), rec(1, "a", 1), // duplicate across an interleave
		rec(2, "c", 3),
	}
	ref := &Dataset{Kernels: append([]KernelRecord(nil), recs...)}
	ref.Clean()

	got := dedupKernelGroups(append([]KernelRecord(nil), recs...))
	if !reflect.DeepEqual(got, ref.Kernels) {
		t.Fatalf("dedupKernelGroups = %+v\nwant (Clean) %+v", got, ref.Kernels)
	}
	if len(got) != 5 {
		t.Fatalf("kept %d records, want 5", len(got))
	}
}

// BenchmarkDatasetBuild gates the collection pipeline itself (the bench_compare
// gate for this package): four diverse networks on one GPU with the default
// batch-size protocol at a reduced measurement count. Complements the root
// package's BenchmarkLabDatasetBuild, which also covers the lab's caching
// layer and the per-GPU split.
func BenchmarkDatasetBuild(b *testing.B) {
	nets := smallNets()
	opt := DefaultBuildOptions()
	opt.Batches = 8
	opt.Warmup = 2
	gpus := []gpu.Spec{gpu.A100}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Build(nets, gpus, opt); err != nil {
			b.Fatal(err)
		}
	}
}
