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

// TestCollectionEmitsNoDuplicates pins what lets collection skip any
// dedup of its own: on the quick lab's networks and protocol, on two GPUs,
// in inference and training mode, with measurement noise and without it
// (σ<0 makes every duration deterministic, so repeated launches would
// collide exactly), Clean finds nothing to drop; and a batch size listed
// twice collects exactly what one listing does.
func TestCollectionEmitsNoDuplicates(t *testing.T) {
	gpus := []gpu.Spec{gpu.A100, gpu.V100}
	noDuplicates := func(t *testing.T, cfg sim.Config) {
		for _, training := range []bool{false, true} {
			opt := DefaultBuildOptions()
			opt.Batches = 8
			opt.Warmup = 2
			opt.Training = training
			opt.SimConfig = cfg
			ds, _, err := Build(quickLabNetworks(), gpus, opt)
			if err != nil {
				t.Fatal(err)
			}
			n := len(ds.Networks) + len(ds.Layers) + len(ds.Kernels)
			if dropped := ds.Clean(); dropped != 0 {
				t.Fatalf("training %v: Clean dropped %d of %d collected records", training, dropped, n)
			}
		}
	}
	t.Run("distinct-batches", func(t *testing.T) { noDuplicates(t, sim.Config{}) })
	t.Run("noise-free", func(t *testing.T) { noDuplicates(t, sim.Config{NoiseSigma: -1}) })

	t.Run("repeated-batches", func(t *testing.T) {
		once, _, err := Build(smallNets(), gpus, smallOpt())
		if err != nil {
			t.Fatal(err)
		}
		opt := smallOpt()
		opt.E2EBatchSizes = []int{4, 64, 4, 64}
		twice, _, err := Build(smallNets(), gpus, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(twice, once) {
			t.Fatal("batch sizes listed twice collect differently from one listing")
		}
	})
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
