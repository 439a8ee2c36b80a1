package dataset

import (
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/dnn"
	"repro/internal/gpu"
	"repro/internal/profiler"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/zoo"
)

// smallBuild collects a compact dataset for the tests: a handful of diverse
// networks on one or two GPUs.
func smallBuild(t *testing.T, gpus []gpu.Spec) *Dataset {
	t.Helper()
	nets := []*dnn.Network{
		zoo.MustResNet(18),
		zoo.MustVGG(11, false),
		zoo.StandardMobileNetV2(),
		zoo.MustDenseNet(121),
		mustTransformer(t, "bert-tiny"),
		mustTransformer(t, "bert-mini"),
	}
	opt := DefaultBuildOptions()
	opt.Batches = 3
	opt.Warmup = 1
	opt.E2EBatchSizes = []int{4, 512}
	ds, _, err := Build(nets, gpus, opt)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func mustTransformer(t *testing.T, name string) *dnn.Network {
	t.Helper()
	n, err := zoo.StandardTransformer(name)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestRecordWriterMatchesTrace: collection writes its records straight
// from the measured durations, and they must be the records a profiler
// trace of the same run converts to — one network record, one layer record
// per layer that dispatched kernels, in layer order, and the layer's kernel
// records in launch order. A training step launches its layers out of
// order (the backward pass walks them in reverse), so the writer's grouping
// by layer is not launch order.
func TestRecordWriterMatchesTrace(t *testing.T) {
	const batch = 8
	opt := BuildOptions{E2EBatchSizes: []int{batch}, DetailBatchSize: batch, Batches: 2, Warmup: 2, Training: true}
	net := zoo.MustResNet(18)
	ds, _, err := Build([]*dnn.Network{net}, []gpu.Spec{gpu.A100}, opt)
	if err != nil {
		t.Fatal(err)
	}
	p := &profiler.Profiler{Device: sim.NewDefault(gpu.A100), Warmup: opt.Warmup, Batches: opt.Batches, Training: true}
	tr, err := p.Profile(net.Clone(), batch)
	if err != nil {
		t.Fatal(err)
	}

	// The trace's launch order revisits earlier layers.
	var events []profiler.KernelEvent
	for _, l := range tr.Layers {
		events = append(events, l.Kernels...)
	}
	sort.Slice(events, func(i, j int) bool { return events[i].Start < events[j].Start })
	monotone := true
	for i := 1; i < len(events); i++ {
		if events[i].LayerIndex < events[i-1].LayerIndex {
			monotone = false
		}
	}
	if monotone {
		t.Fatal("the training trace launches its layers in order; the test needs one that does not")
	}

	want := Dataset{Networks: []NetworkRecord{{
		Network: tr.Network, Family: tr.Family, Task: string(tr.Task), GPU: tr.GPU, BatchSize: tr.BatchSize,
		TotalFLOPs: units.FLOPs(tr.TotalFLOPs), E2ESeconds: units.Seconds(tr.E2ETime),
	}}}
	for _, l := range tr.Layers {
		if len(l.Kernels) == 0 {
			continue
		}
		want.Layers = append(want.Layers, LayerRecord{
			Network: tr.Network, GPU: tr.GPU, BatchSize: tr.BatchSize, LayerIndex: l.Index,
			Kind: string(l.Kind), Signature: l.Signature, FLOPs: units.FLOPs(l.FLOPs),
			InputElems: l.InputElems, OutputElems: l.OutputElems, Seconds: units.Seconds(l.Duration),
		})
		for _, ev := range l.Kernels {
			want.Kernels = append(want.Kernels, KernelRecord{
				Network: tr.Network, GPU: tr.GPU, BatchSize: tr.BatchSize, LayerIndex: l.Index,
				LayerKind: string(l.Kind), LayerSignature: l.Signature, Kernel: ev.Name,
				LayerFLOPs: units.FLOPs(ev.Kernel.LayerFLOPs), LayerInputElems: ev.Kernel.LayerInputElems,
				LayerOutputElems: ev.Kernel.LayerOutputElems, Seconds: units.Seconds(ev.Duration),
			})
		}
	}
	if len(want.Layers) == 0 || len(want.Layers) == len(tr.Layers) {
		t.Fatalf("%d of %d layers dispatched kernels; the test needs some that do and some that do not",
			len(want.Layers), len(tr.Layers))
	}
	if !reflect.DeepEqual(*ds, want) {
		t.Fatalf("collection wrote %d/%d/%d records differing from the trace's %d/%d/%d",
			len(ds.Networks), len(ds.Layers), len(ds.Kernels), len(want.Networks), len(want.Layers), len(want.Kernels))
	}
}

func TestBuildShape(t *testing.T) {
	ds := smallBuild(t, []gpu.Spec{gpu.A100})
	// Every network gets E2E records at batch 4 and 512.
	names := ds.NetworkNames()
	if len(names) != 6 {
		t.Fatalf("networks = %v", names)
	}
	perNet := map[string]map[int]bool{}
	for _, r := range ds.Networks {
		if perNet[r.Network] == nil {
			perNet[r.Network] = map[int]bool{}
		}
		perNet[r.Network][r.BatchSize] = true
	}
	for n, bs := range perNet {
		if !bs[4] || !bs[512] {
			t.Fatalf("%s: batch coverage %v", n, bs)
		}
	}
	// Detail records exist only at the detail batch size.
	for _, r := range ds.Kernels {
		if r.BatchSize != 512 {
			t.Fatalf("kernel record at batch %d", r.BatchSize)
		}
	}
}

func TestBuildDeterministicAcrossWorkers(t *testing.T) {
	nets := []*dnn.Network{zoo.MustResNet(18), zoo.MustVGG(11, false), zoo.StandardMobileNetV2()}
	opt := DefaultBuildOptions()
	opt.Batches = 2
	opt.Warmup = 0
	opt.E2EBatchSizes = []int{8}
	opt.DetailBatchSize = 8

	// Collection runs GOMAXPROCS workers.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	a, _, err := Build(nets, []gpu.Spec{gpu.A100}, opt)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(4)
	b, _, err := Build(nets, []gpu.Spec{gpu.A100}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("dataset differs across worker counts")
	}
}

func TestBuildReportsOOM(t *testing.T) {
	nets := []*dnn.Network{zoo.MustVGG(16, false)}
	opt := DefaultBuildOptions()
	opt.Batches = 1
	opt.Warmup = 0
	opt.E2EBatchSizes = []int{4, 512}
	ds, rep, err := Build(nets, []gpu.Spec{gpu.QuadroP620}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.OutOfMemory) == 0 {
		t.Fatal("VGG-16 at batch 512 should OOM on a 2 GB card")
	}
	for _, r := range ds.Networks {
		if r.BatchSize == 512 {
			t.Fatal("OOM run leaked into the dataset")
		}
	}
}

func TestBuildReportProfiledCounts(t *testing.T) {
	// Without OOMs, Profiled is exactly networks × GPUs × batch sizes.
	nets := []*dnn.Network{zoo.MustResNet(18), zoo.StandardMobileNetV2(), zoo.MustDenseNet(121)}
	opt := DefaultBuildOptions()
	opt.Batches = 1
	opt.Warmup = 0
	opt.E2EBatchSizes = []int{4, 512} // detail size 512 folds into this list
	gpus := []gpu.Spec{gpu.A100, gpu.V100}
	_, rep, err := Build(nets, gpus, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.OutOfMemory) != 0 {
		t.Fatalf("unexpected OOMs: %v", rep.OutOfMemory)
	}
	want := len(nets) * len(gpus) * 2
	if rep.Profiled != want {
		t.Fatalf("Profiled = %d; want %d (one per (network, GPU, batch) execution)",
			rep.Profiled, want)
	}

	// With OOMs, the dropped runs move from Profiled to OutOfMemory and the
	// two still account for every attempted execution.
	_, rep, err = Build([]*dnn.Network{zoo.MustVGG(16, false)}, []gpu.Spec{gpu.QuadroP620}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.OutOfMemory) == 0 {
		t.Fatal("VGG-16 at batch 512 should OOM on a 2 GB card")
	}
	if got := rep.Profiled + len(rep.OutOfMemory); got != 2 {
		t.Fatalf("Profiled (%d) + OOM (%d) = %d; want 2 attempted executions",
			rep.Profiled, len(rep.OutOfMemory), got)
	}
}

func TestBuildValidation(t *testing.T) {
	if _, _, err := Build(nil, []gpu.Spec{gpu.A100}, DefaultBuildOptions()); err == nil {
		t.Fatal("empty network list should error")
	}
	if _, _, err := Build([]*dnn.Network{zoo.MustResNet(18)}, nil, DefaultBuildOptions()); err == nil {
		t.Fatal("empty GPU list should error")
	}
}

func TestCleanRemovesDuplicates(t *testing.T) {
	ds := smallBuild(t, []gpu.Spec{gpu.A100})
	nNet, nLay, nKer := len(ds.Networks), len(ds.Layers), len(ds.Kernels)
	dup := &Dataset{}
	dup.Merge(ds)
	dup.Merge(ds)
	dropped := dup.Clean()
	if dropped != nNet+nLay+nKer {
		t.Fatalf("Clean dropped %d, want %d", dropped, nNet+nLay+nKer)
	}
	if len(dup.Networks) != nNet || len(dup.Layers) != nLay || len(dup.Kernels) != nKer {
		t.Fatal("Clean changed the deduplicated contents")
	}
	// A second Clean is a no-op.
	if dropped := dup.Clean(); dropped != 0 {
		t.Fatalf("idempotent Clean dropped %d", dropped)
	}
}

func TestSplitByNetwork(t *testing.T) {
	ds := smallBuild(t, []gpu.Spec{gpu.A100})
	train, test := ds.SplitByNetwork(0.34, 7)
	trainNames := map[string]bool{}
	for _, n := range train.NetworkNames() {
		trainNames[n] = true
	}
	for _, n := range test.NetworkNames() {
		if trainNames[n] {
			t.Fatalf("network %q appears in both splits", n)
		}
	}
	if len(train.NetworkNames())+len(test.NetworkNames()) != len(ds.NetworkNames()) {
		t.Fatal("split loses networks")
	}
	// Stratified: both tasks present in the test split.
	tasks := map[string]bool{}
	for _, r := range test.Networks {
		tasks[r.Task] = true
	}
	if !tasks[string(dnn.TaskImageClassification)] || !tasks[string(dnn.TaskTextClassification)] {
		t.Fatalf("test split tasks = %v, want both", tasks)
	}
	// Deterministic in the seed.
	_, test2 := ds.SplitByNetwork(0.34, 7)
	if !reflect.DeepEqual(test.NetworkNames(), test2.NetworkNames()) {
		t.Fatal("split is not deterministic")
	}
	_, test3 := ds.SplitByNetwork(0.34, 8)
	if reflect.DeepEqual(test.NetworkNames(), test3.NetworkNames()) {
		t.Fatal("different seeds should give different splits (with high probability)")
	}
}

// referenceFilter is the per-record filter the split must reproduce: every
// record whose network is in keep, in order.
func referenceFilter(ds *Dataset, keep map[string]bool) *Dataset {
	out := &Dataset{}
	for _, r := range ds.Networks {
		if keep[r.Network] {
			out.Networks = append(out.Networks, r)
		}
	}
	for _, r := range ds.Layers {
		if keep[r.Network] {
			out.Layers = append(out.Layers, r)
		}
	}
	for _, r := range ds.Kernels {
		if keep[r.Network] {
			out.Kernels = append(out.Kernels, r)
		}
	}
	return out
}

// checkSplitMatchesReference splits ds and compares each side with the
// reference filter over that side's network names.
func checkSplitMatchesReference(t *testing.T, ds *Dataset) (train, test *Dataset) {
	t.Helper()
	train, test = ds.SplitByNetwork(0.34, 7)
	for _, side := range []*Dataset{train, test} {
		keep := map[string]bool{}
		for _, n := range side.NetworkNames() {
			keep[n] = true
		}
		want := referenceFilter(ds, keep)
		if !reflect.DeepEqual(side, want) {
			t.Fatalf("split side %v differs from the reference filter: %d/%d/%d records, want %d/%d/%d",
				side.NetworkNames(), len(side.Networks), len(side.Layers), len(side.Kernels),
				len(want.Networks), len(want.Layers), len(want.Kernels))
		}
		if cap(side.Networks) != len(side.Networks) || cap(side.Layers) != len(side.Layers) ||
			cap(side.Kernels) != len(side.Kernels) {
			t.Fatal("split slices are not sized exactly")
		}
	}
	if len(train.NetworkNames())+len(test.NetworkNames()) != len(ds.NetworkNames()) {
		t.Fatal("split loses networks")
	}
	return train, test
}

// TestSplitMatchesReferenceFilter checks the one-pass split against the
// per-record reference on a two-GPU dataset merged per GPU, where each
// network's records form two runs that are not adjacent.
func TestSplitMatchesReferenceFilter(t *testing.T) {
	opt := smallOpt()
	parts, _, err := BuildPerGPU(smallNets(), []gpu.Spec{gpu.A100, gpu.V100}, opt)
	if err != nil {
		t.Fatal(err)
	}
	ds := &Dataset{}
	ds.Merge(parts[0])
	ds.Merge(parts[1])
	checkSplitMatchesReference(t, ds)
}

// TestSplitDropsOrphanRecords: layer and kernel records naming a network
// with no network record belong to neither side of the split.
func TestSplitDropsOrphanRecords(t *testing.T) {
	ds := &Dataset{}
	for i, name := range []string{"a", "b", "c", "d", "e", "f"} {
		task := string(dnn.TaskImageClassification)
		if i%2 == 1 {
			task = string(dnn.TaskTextClassification)
		}
		ds.Networks = append(ds.Networks, NetworkRecord{Network: name, Task: task, GPU: "A100", BatchSize: 512})
	}
	// Orphan runs sit first, between named networks, and last.
	for _, name := range []string{"orphan", "a", "b", "orphan", "c", "d", "e", "f", "ghost"} {
		for li := 0; li < 3; li++ {
			ds.Layers = append(ds.Layers, LayerRecord{Network: name, GPU: "A100", LayerIndex: li})
			ds.Kernels = append(ds.Kernels,
				KernelRecord{Network: name, GPU: "A100", LayerIndex: li, Kernel: "k0"},
				KernelRecord{Network: name, GPU: "A100", LayerIndex: li, Kernel: "k1"})
		}
	}
	train, test := checkSplitMatchesReference(t, ds)
	if len(train.Layers)+len(test.Layers) != 6*3 || len(train.Kernels)+len(test.Kernels) != 6*6 {
		t.Fatalf("split kept %d layer and %d kernel records, want 18 and 36",
			len(train.Layers)+len(test.Layers), len(train.Kernels)+len(test.Kernels))
	}
}

func TestFilters(t *testing.T) {
	ds := smallBuild(t, []gpu.Spec{gpu.A100, gpu.V100})
	a100 := ds.FilterGPU("A100")
	for _, r := range a100.Networks {
		if r.GPU != "A100" {
			t.Fatal("FilterGPU leaked records")
		}
	}
	if len(a100.Networks) == 0 || len(a100.Kernels) == 0 {
		t.Fatal("FilterGPU dropped everything")
	}

	keep := map[string]bool{"resnet18": true}
	sub := ds.FilterNetworks(keep)
	if got := sub.NetworkNames(); len(got) != 1 || got[0] != "resnet18" {
		t.Fatalf("FilterNetworks = %v", got)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	ds := smallBuild(t, []gpu.Spec{gpu.A100})
	dir := filepath.Join(t.TempDir(), "ds")
	if err := ds.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	back, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ds, back) {
		t.Fatal("CSV round-trip altered the dataset")
	}
}

func TestReadDirHeaderValidation(t *testing.T) {
	dir := t.TempDir()
	ds := smallBuild(t, []gpu.Spec{gpu.A100})
	if err := ds.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	// Corrupt one header.
	path := filepath.Join(dir, NetworksCSV)
	if err := writeCSV(path, []string{"wrong"}, 0, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadDir(dir); err == nil {
		t.Fatal("mismatched header should error")
	}
}

func TestSummaryAndNames(t *testing.T) {
	ds := smallBuild(t, []gpu.Spec{gpu.A100})
	s := ds.Summary()
	if !strings.Contains(s, "6 networks") || !strings.Contains(s, "1 GPUs") {
		t.Fatalf("Summary = %q", s)
	}
	kn := ds.KernelNames()
	for i := 1; i < len(kn); i++ {
		if kn[i-1] >= kn[i] {
			t.Fatal("KernelNames not sorted")
		}
	}
	if len(kn) == 0 {
		t.Fatal("no kernel names")
	}
}
