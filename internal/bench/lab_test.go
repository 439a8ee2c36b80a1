package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/gpu"
	"repro/internal/units"
)

// TestDatasetConcurrentSingleBuild hammers Dataset and Sweep from eight
// goroutines (run under -race in CI) and asserts every GPU's collection pass
// ran exactly once — the check-then-act race the per-GPU flight cache fixes
// would build duplicates here.
func TestDatasetConcurrentSingleBuild(t *testing.T) {
	l := NewQuickLab()
	gpus := []gpu.Spec{gpu.A40, gpu.TitanRTX}

	const goroutines = 8
	var wg sync.WaitGroup
	results := make([]int, goroutines) // dataset record counts, compared below
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			switch g % 3 {
			case 0: // both GPUs at once
				ds, err := l.Dataset(gpus...)
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				results[g] = len(ds.Networks)
			case 1: // single GPU
				ds, err := l.Dataset(gpus[0])
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				results[g] = -len(ds.Networks)
			case 2: // an independent sweep, concurrent with the builds
				ds, err := l.Sweep([]string{"resnet50"}, []gpu.Spec{gpu.A100}, []int{64})
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if len(ds.Networks) == 0 {
					t.Errorf("goroutine %d: empty sweep", g)
				}
			}
		}(g)
	}
	wg.Wait()

	if got := l.BuildCount(); got != int64(len(gpus)) {
		t.Fatalf("%d collection passes for %d GPUs; concurrent callers must share builds",
			got, len(gpus))
	}
	// Every goroutine that asked the same question must have seen the same
	// dataset.
	for g := 3; g < goroutines; g++ {
		if g%3 == 2 || results[g] == 0 {
			continue
		}
		if results[g] != results[g%3] {
			t.Fatalf("goroutine %d saw %d records, goroutine %d saw %d",
				g, results[g], g%3, results[g%3])
		}
	}
}

// TestDatasetDeterministicOrder: the parallel merge must order per-GPU
// datasets by the gpus argument, not completion order.
func TestDatasetDeterministicOrder(t *testing.T) {
	l := NewQuickLab()
	a, err := l.Dataset(gpu.A40, gpu.TitanRTX)
	if err != nil {
		t.Fatal(err)
	}
	b, err := l.Dataset(gpu.A40, gpu.TitanRTX)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Networks) != len(b.Networks) {
		t.Fatalf("record counts differ: %d vs %d", len(a.Networks), len(b.Networks))
	}
	for i := range a.Networks {
		if a.Networks[i] != b.Networks[i] {
			t.Fatalf("record %d differs between identical Dataset calls:\n%+v\n%+v",
				i, a.Networks[i], b.Networks[i])
		}
	}
}

// TestDatasetSharesCachedBuild: a repeated single-GPU Dataset call returns
// the cached build without rebuilding it, and an append or Merge made to one
// call's result never shows in a later call's.
func TestDatasetSharesCachedBuild(t *testing.T) {
	l := NewQuickLab()
	first, err := l.Dataset(gpu.A100)
	if err != nil {
		t.Fatal(err)
	}
	nNet, nLay, nKer := len(first.Networks), len(first.Layers), len(first.Kernels)
	cachedNet := &first.Networks[0]
	extra := &dataset.Dataset{
		Networks: first.Networks[:1],
		Layers:   first.Layers[:1],
		Kernels:  first.Kernels[:1],
	}
	first.Merge(extra)
	first.Networks = append(first.Networks, dataset.NetworkRecord{Network: "appended"})

	second, err := l.Dataset(gpu.A100)
	if err != nil {
		t.Fatal(err)
	}
	if got := l.BuildCount(); got != 1 {
		t.Fatalf("BuildCount = %d after two A100 calls, want 1", got)
	}
	if len(second.Networks) != nNet || len(second.Layers) != nLay || len(second.Kernels) != nKer {
		t.Fatalf("second call sees %d/%d/%d records, want %d/%d/%d", len(second.Networks),
			len(second.Layers), len(second.Kernels), nNet, nLay, nKer)
	}
	if &second.Networks[0] != cachedNet {
		t.Fatal("second call copied the cached records instead of sharing them")
	}
	if first.Networks[nNet].Network != first.Networks[0].Network || first.Networks[nNet+1].Network != "appended" {
		t.Fatal("the first result lost its own Merge or append")
	}
	// Growing the second result must not write past the cached records
	// either: its capacity ends where the cache does.
	if cap(second.Networks) != nNet || cap(second.Layers) != nLay || cap(second.Kernels) != nKer {
		t.Fatalf("cached slices not capacity-clipped: caps %d/%d/%d, lens %d/%d/%d",
			cap(second.Networks), cap(second.Layers), cap(second.Kernels), nNet, nLay, nKer)
	}
}

// TestLabFitsOncePerKey calls KW on two GPUs and IGKWBase on both orders of
// their list from eight goroutines at once, each in its own rotation, on a
// fresh lab (run under -race in CI): every call of one key returns the same
// pointer, the two orders are two bases, the lab collects each GPU once,
// and each shared fit saves to the bytes of a direct core.FitKW or
// core.FitIGKWBase fit on the same data.
func TestLabFitsOncePerKey(t *testing.T) {
	l := NewQuickLab()
	a, b := gpu.A40, gpu.TitanRTX
	const goroutines = 8
	kws := make([][2]*core.KWModel, goroutines)
	bases := make([][2]*core.IGKWBase, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		calls := []func() error{
			func() (err error) { kws[i][0], err = l.KW(a); return },
			func() (err error) { kws[i][1], err = l.KW(b); return },
			func() (err error) { bases[i][0], err = l.IGKWBase(a, b); return },
			func() (err error) { bases[i][1], err = l.IGKWBase(b, a); return },
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range calls {
				if err := calls[(i+k)%len(calls)](); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i := 1; i < goroutines; i++ {
		if kws[i] != kws[0] || bases[i] != bases[0] {
			t.Fatalf("goroutine %d got other fits than goroutine 0", i)
		}
	}
	if bases[0][0] == bases[0][1] {
		t.Fatal("IGKWBase(a, b) and IGKWBase(b, a) share one base")
	}
	if n := l.BuildCount(); n != 2 {
		t.Fatalf("%d collection passes for 2 GPUs", n)
	}

	saved := func(m core.Predictor) string {
		var b strings.Builder
		if err := core.Save(&b, m); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	for k, g := range []gpu.Spec{a, b} {
		ds, err := l.Dataset(g)
		if err != nil {
			t.Fatal(err)
		}
		train, _ := l.Split(ds)
		want, err := core.FitKW(train, g.Name, TrainBatch)
		if err != nil {
			t.Fatal(err)
		}
		if saved(kws[0][k]) != saved(want) {
			t.Errorf("Lab.KW(%s) saves other bytes than a direct FitKW", g.Name)
		}
	}
	for k, gpus := range [][]gpu.Spec{{a, b}, {b, a}} {
		ds, err := l.Dataset(gpus...)
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.FitIGKWBase(ds, gpus, TrainBatch)
		if err != nil {
			t.Fatal(err)
		}
		got, err := bases[0][k].Resolve(gpu.A100)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := want.Resolve(gpu.A100)
		if err != nil {
			t.Fatal(err)
		}
		if saved(got) != saved(ref) {
			t.Errorf("Lab.IGKWBase(%s, %s) resolves to other bytes than a direct FitIGKWBase", gpus[0].Name, gpus[1].Name)
		}
	}
}

// TestFigure18RenderInvariance: rendering the scheduling case study twice —
// the second pass served entirely from cached datasets, fitted models with
// warm plan caches and the concurrent query path — must produce byte-equal
// tables, and every concurrent prediction must equal its uncached reference.
func TestFigure18RenderInvariance(t *testing.T) {
	l := quickLab(t)
	r1, err := Figure18(l)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Figure18(l)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Render() != r2.Render() {
		t.Fatalf("renders differ:\n--- first\n%s\n--- second\n%s", r1.Render(), r2.Render())
	}

	// Cross-check the concurrent plan-served predictions against the
	// reference path, network by network.
	preds, err := predictSchedTimes(l, figure18Nets)
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range figure18Nets {
		net, err := l.Network(name)
		if err != nil {
			t.Fatal(err)
		}
		for j, g := range schedGPUs() {
			kw, err := l.KW(g)
			if err != nil {
				t.Fatal(err)
			}
			want, err := kw.PredictNetworkUncached(net.Clone(), TrainBatch)
			if err != nil {
				t.Fatal(err)
			}
			if preds[i][j] != want {
				t.Fatalf("%s on %s: concurrent %v != uncached %v",
					name, g.Name, preds[i][j], want)
			}
		}
	}
}

// labDatasetAllocCeilingMiB bounds the bytes one quick-lab A100 collection
// allocates, in MiB. Collection writes each record once, into its GPU's
// exactly sized slices, and resolves each kernel name's device factors
// once; a build that copies its records again, or allocates per kernel
// invocation, exceeds it. On go1.24/amd64 the build allocates 17.0 MiB,
// and one that also copies every record twice more (into per-network
// datasets, then into each GPU's part) allocates 26.8.
const labDatasetAllocCeilingMiB = 21

// TestLabDatasetAllocCeiling measures one quick-lab A100 Lab.Dataset, the
// lab built beforehand, by its runtime.MemStats.TotalAlloc delta.
func TestLabDatasetAllocCeiling(t *testing.T) {
	l := NewQuickLab()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := l.Dataset(gpu.A100); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	mib := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	t.Logf("quick-lab A100 collection allocated %.1f MiB", mib)
	if mib > labDatasetAllocCeilingMiB {
		t.Fatalf("quick-lab A100 collection allocated %.1f MiB, above the %d MiB ceiling", mib, labDatasetAllocCeilingMiB)
	}
}

// quickLabCollectionDigest pins the bytes collection produces, recorded by
// running TestQuickLabCollectionDigest's body before collection was reworked
// to touch each record once. Unlike the run-against-run golden tests, it
// fails when a change alters every record the same way.
const quickLabCollectionDigest = "0e2f537b709c662043ff7627989e9aaa5a447dcc24a19434626e593a458f0135"

// TestQuickLabCollectionDigest hashes, in order: every field of every
// record of the quick lab's A100 dataset, the train/test network lists of
// its canonical split, the saved KW model fitted on the train side, the
// two-GPU (A100 + V100) dataset, and a training-mode Build of the first 20
// lab networks on A100 and V100 with its report. Floats are hashed in hex
// ('x') so every bit counts. It runs at GOMAXPROCS 1 and 4, so the
// collection workers, the device they share per GPU and the parallel
// record writes are held to the serial result.
func TestQuickLabCollectionDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick-lab collection")
	}
	for _, procs := range []int{1, 4} {
		t.Run("GOMAXPROCS="+strconv.Itoa(procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			l := NewQuickLab()
			h := sha256.New()

			ds, err := l.Dataset(gpu.A100)
			if err != nil {
				t.Fatal(err)
			}
			hashRecords(h, "A100", ds)
			train, test := l.Split(ds)
			fmt.Fprintf(h, "train %q\ntest %q\n", train.NetworkNames(), test.NetworkNames())
			m, err := core.FitKW(train, gpu.A100.Name, TrainBatch)
			if err != nil {
				t.Fatal(err)
			}
			if err := core.Save(h, m); err != nil {
				t.Fatal(err)
			}

			two, err := l.Dataset(gpu.A100, gpu.V100)
			if err != nil {
				t.Fatal(err)
			}
			hashRecords(h, "A100+V100", two)

			opt := dataset.DefaultBuildOptions()
			opt.Batches = l.batches
			opt.Warmup = l.warmup
			opt.Training = true
			tds, rep, err := dataset.Build(l.Networks()[:20], []gpu.Spec{gpu.A100, gpu.V100}, opt)
			if err != nil {
				t.Fatal(err)
			}
			hashRecords(h, "training", tds)
			fmt.Fprintf(h, "profiled %d oom %q\n", rep.Profiled, rep.OutOfMemory)

			if got := hex.EncodeToString(h.Sum(nil)); got != quickLabCollectionDigest {
				t.Fatalf("quick-lab collection digest = %s, want %s", got, quickLabCollectionDigest)
			}
		})
	}
}

// fullLabCollectionDigest pins the full-fidelity A100 dataset every paper
// figure reads (the 646-network zoo at the paper's 20 warm-up and 30
// measured batches), recorded by running TestFullLabCollectionDigest's body
// while collection still carried its own dedup pass and base-time memo.
const fullLabCollectionDigest = "27fcc241c8f747b65bfd9e57209bf7bf246d9067ec12b4adb7839dba15d6a5fb"

// TestFullLabCollectionDigest hashes every field of every record of the
// full lab's A100 dataset, floats in hex.
func TestFullLabCollectionDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("full-lab collection")
	}
	ds, err := NewLab().Dataset(gpu.A100)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	hashRecords(h, "A100", ds)
	if got := hex.EncodeToString(h.Sum(nil)); got != fullLabCollectionDigest {
		t.Fatalf("full-lab collection digest = %s, want %s", got, fullLabCollectionDigest)
	}
}

// hashRecords writes every field of every record of ds to w, one line per
// record, floats in hex.
func hashRecords(w io.Writer, label string, ds *dataset.Dataset) {
	hx := func(s units.Seconds) string { return strconv.FormatFloat(float64(s), 'x', -1, 64) }
	fmt.Fprintf(w, "%s %d %d %d\n", label, len(ds.Networks), len(ds.Layers), len(ds.Kernels))
	for _, r := range ds.Networks {
		fmt.Fprintf(w, "N|%s|%s|%s|%s|%d|%d|%s\n", r.Network, r.Family, r.Task, r.GPU,
			r.BatchSize, r.TotalFLOPs, hx(r.E2ESeconds))
	}
	for _, r := range ds.Layers {
		fmt.Fprintf(w, "L|%s|%s|%d|%d|%s|%s|%d|%d|%d|%s\n", r.Network, r.GPU, r.BatchSize,
			r.LayerIndex, r.Kind, r.Signature, r.FLOPs, r.InputElems, r.OutputElems, hx(r.Seconds))
	}
	for _, r := range ds.Kernels {
		fmt.Fprintf(w, "K|%s|%s|%d|%d|%s|%s|%s|%d|%d|%d|%s\n", r.Network, r.GPU, r.BatchSize,
			r.LayerIndex, r.LayerKind, r.LayerSignature, r.Kernel, r.LayerFLOPs,
			r.LayerInputElems, r.LayerOutputElems, hx(r.Seconds))
	}
}
