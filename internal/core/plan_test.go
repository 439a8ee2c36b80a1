package core

import (
	"bytes"
	"fmt"
	"math/big"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/dnn"
	"repro/internal/gpu"
	"repro/internal/kernels"
	"repro/internal/units"
	"repro/internal/zoo"
)

// planFixtureBatches are the query batch sizes the identity tests cover: the
// small-batch regime (1, 4), a mid point (64) and the training batch (512).
var planFixtureBatches = []int{1, 4, 64, 512}

// zooSample returns the quick-lab zoo sample (every sixth network).
func zooSample() []*dnn.Network {
	full := zoo.Full()
	var sub []*dnn.Network
	for i := 0; i < len(full); i += 6 {
		sub = append(sub, full[i])
	}
	return sub
}

// buildSampleDataset collects a reduced dataset of the zoo sample on A100.
func buildSampleDataset(t testing.TB, training bool) *dataset.Dataset {
	t.Helper()
	opt := dataset.DefaultBuildOptions()
	opt.Batches = 8
	opt.Warmup = 2
	opt.Training = training
	ds, _, err := dataset.Build(zooSample(), []gpu.Spec{gpu.A100}, opt)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// assertPlanIdentity checks that the plan-backed prediction path returns the
// exact same float64 (==, not within-epsilon) as the reference uncached path
// for every network in the sample at every fixture batch size.
func assertPlanIdentity(t *testing.T, predict func(*dnn.Network, int) (units.Seconds, error),
	uncached func(*dnn.Network, int) (units.Seconds, error)) {
	t.Helper()
	for _, n := range zooSample() {
		for _, batch := range planFixtureBatches {
			want, wantErr := uncached(n, batch)
			got, gotErr := predict(n, batch)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("%s@%d: uncached err %v, plan err %v", n.Name, batch, wantErr, gotErr)
			}
			if wantErr != nil {
				continue
			}
			if got != want {
				t.Fatalf("%s@%d: plan %v != uncached %v (diff %g)",
					n.Name, batch, got, want, got-want)
			}
		}
	}
}

// TestKWPlanBitIdentical is the accuracy-preservation proof for the inference
// model: the compiled-plan fast path must be bit-identical to the original
// Infer-and-sum path for every zoo-sample network at every batch size.
func TestKWPlanBitIdentical(t *testing.T) {
	ds := buildSampleDataset(t, false)
	kw, err := FitKW(ds, "A100", 512)
	if err != nil {
		t.Fatal(err)
	}
	assertPlanIdentity(t, kw.PredictNetwork, kw.PredictNetworkUncached)
}

// TestKWPlanBitIdenticalTraining repeats the identity proof for a
// training-step model, whose kernel lists include backward and optimizer
// kernels (the constant-driver sgd_update among them).
func TestKWPlanBitIdenticalTraining(t *testing.T) {
	ds := buildSampleDataset(t, true)
	kw, err := FitKWOptions(ds, "A100", 512, KWOptions{Training: true})
	if err != nil {
		t.Fatal(err)
	}
	assertPlanIdentity(t, kw.PredictNetwork, kw.PredictNetworkUncached)
}

// TestIGKWPlanBitIdentical repeats the identity proof for the
// interpolation-based cross-GPU model.
func TestIGKWPlanBitIdentical(t *testing.T) {
	ds := &dataset.Dataset{}
	for _, g := range []gpu.Spec{gpu.A100, gpu.A40, gpu.V100} {
		ds.Merge(plantKernelDataset(g, 3))
	}
	m, err := FitIGKW(ds, []gpu.Spec{gpu.A100, gpu.A40, gpu.V100}, gpu.TitanRTX, 512)
	if err != nil {
		t.Fatal(err)
	}
	assertPlanIdentity(t, m.PredictNetwork, m.PredictNetworkUncached)
}

// novelNetwork builds seeded never-seen network i: a 3×S×S input and 6 to 20
// conv → BatchNorm → ReLU blocks of random width, kernel size and stride,
// wired the way dnnperf serve builds an inline network_spec (each layer reads
// the previous one, dense convolutions). It is the request shape of NAS-style
// "score many candidates once" traffic, which misses every plan cache.
func novelNetwork(seed int64, i int) *dnn.Network {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(i)))
	sizes := []int{32, 64, 128}
	widths := []int{16, 24, 32, 48, 64, 96, 128, 192, 256}
	ksizes := []int{1, 3, 5}
	side := sizes[rng.Intn(len(sizes))]
	n := dnn.New(fmt.Sprintf("novel-%d-%d", seed, i), "custom", dnn.TaskImageClassification, dnn.Shape{3, side, side})
	prev, cin := dnn.NetworkInput, 3
	for b, blocks := 0, 6+rng.Intn(15); b < blocks; b++ {
		k := ksizes[rng.Intn(len(ksizes))]
		stride := 1
		if side >= 8 && rng.Intn(4) == 0 {
			stride = 2
			side = (side+2*(k/2)-k)/2 + 1
		}
		cout := widths[rng.Intn(len(widths))]
		for _, l := range []*dnn.Layer{
			{Kind: dnn.KindConv2D, Cin: cin, Cout: cout, KH: k, KW: k, Stride: stride, Pad: k / 2, Groups: 1},
			{Kind: dnn.KindBatchNorm},
			{Kind: dnn.KindReLU},
		} {
			l.Inputs = []int{prev}
			prev = n.Add(l)
		}
		cin = cout
	}
	if err := n.Infer(1); err != nil {
		panic(err) // every generated block is shape-valid
	}
	return n
}

// boundaryBatches returns b−1, b and b+1 for every GEMM tile breakpoint of
// the network's layers and for the training batch 512, plus batch 1: the
// batch sizes on either side of every point where a kernel's resolution can
// change.
func boundaryBatches(t *testing.T, n *dnn.Network) []int {
	t.Helper()
	c := n.Clone()
	if err := c.Infer(1); err != nil {
		t.Fatal(err)
	}
	out := []int{1}
	add := func(b int) {
		for _, v := range []int{b - 1, b, b + 1} {
			if v >= 1 {
				out = append(out, v)
			}
		}
	}
	for _, l := range c.Layers {
		for _, bp := range kernels.BatchBreakpoints(l) {
			add(bp)
		}
	}
	add(512)
	slices.Sort(out)
	return slices.Compact(out)
}

// planModel is the surface the boundary tests drive: the plan-backed sweep,
// the uncached reference and per-kernel prediction.
type planModel interface {
	SweepPredictor
	PredictNetworkUncached(*dnn.Network, int) (units.Seconds, error)
	PredictKernel(name string, layerFLOPs units.FLOPs, layerInElems, layerOutElems int64) units.Seconds
}

// predictUnmapped is PredictNetworkUncached with the mapping table ignored:
// every layer keeps its kernels.ForLayer names. It sums in the same order,
// so it equals the uncached path exactly wherever no substitution applies.
func predictUnmapped(t *testing.T, m planModel, n *dnn.Network, batch int) units.Seconds {
	t.Helper()
	c := n.Clone()
	if err := c.Infer(batch); err != nil {
		t.Fatal(err)
	}
	var total units.Seconds
	for _, l := range c.Layers {
		for _, k := range kernels.ForLayer(l) {
			total += m.PredictKernel(k.Name, units.FLOPs(k.LayerFLOPs), k.LayerInputElems, k.LayerOutputElems)
		}
	}
	return total
}

// plantMappingEntry adds one mapping entry for the first layer of n at the
// given batch whose kernel names differ from kernels.ForLayer's and resolve
// to different lines, taking replacements from candidates. Simulator-traced
// names match dispatch by construction, so only such an entry makes a
// misplaced substitution boundary visible. It writes the table directly, so
// it must run before the model compiles any plan.
func plantMappingEntry(t *testing.T, mapping map[string][]string, resolve kernelResolve,
	candidates []string, n *dnn.Network, batch int) {
	t.Helper()
	c := n.Clone()
	if err := c.Infer(batch); err != nil {
		t.Fatal(err)
	}
	for _, l := range c.Layers {
		ks := kernels.ForLayer(l)
		names := make([]string, len(ks))
		changed := false
		for i, k := range ks {
			names[i] = k.Name
			orig, _ := resolve(k.Name, k.LayerFLOPs == 0)
			for _, cand := range candidates {
				if line, _ := resolve(cand, k.LayerFLOPs == 0); line != orig {
					names[i], changed = cand, true
					break
				}
			}
		}
		if changed {
			mapping[l.Signature()] = names
			return
		}
	}
	t.Fatalf("no layer of %s admits a planted mapping entry", n.Name)
}

// assertBoundaryIdentity checks that the plan-backed sweep equals the
// uncached path (==) at every boundary batch of every network, and that the
// planted network's substitution applies at 512 only: 511 and 513 must
// equal the mapping-free prediction, 512 must not.
func assertBoundaryIdentity(t *testing.T, m planModel, nets []*dnn.Network, planted *dnn.Network) {
	t.Helper()
	for _, n := range nets {
		batches := boundaryBatches(t, n)
		got, err := m.PredictSweep(n, batches)
		if err != nil {
			t.Fatalf("%s: sweep: %v", n.Name, err)
		}
		for i, b := range batches {
			want, err := m.PredictNetworkUncached(n.Clone(), b)
			if err != nil {
				t.Fatalf("%s@%d: %v", n.Name, b, err)
			}
			if got[i] != want {
				t.Fatalf("%s@%d: plan %v != uncached %v (diff %g)", n.Name, b, got[i], want, got[i]-want)
			}
		}
	}
	for _, b := range []int{511, 512, 513} {
		got, err := m.PredictNetwork(planted, b)
		if err != nil {
			t.Fatal(err)
		}
		if substituted := got != predictUnmapped(t, m, planted, b); substituted != (b == 512) {
			t.Fatalf("%s@%d: substitution applied = %v, want %v", planted.Name, b, substituted, b == 512)
		}
	}
}

// TestPlanBreakpointBoundaries proves plans bit-identical on both sides of
// every resolution breakpoint — the GEMM tile thresholds and the mapping
// substitution's start (512) and stop (513) — for never-seen serve-novel
// networks and the zoo sample, on a KW model with a realistic mapping table
// and on the IGKW fixture, each with one planted renamed entry.
func TestPlanBreakpointBoundaries(t *testing.T) {
	var novel []*dnn.Network
	for i := 0; i < 16; i++ {
		novel = append(novel, novelNetwork(1, i))
	}
	nets := append(append([]*dnn.Network(nil), novel...), zooSample()...)

	t.Run("KW", func(t *testing.T) {
		kw, err := FitKW(buildSampleDataset(t, false), "A100", 512)
		if err != nil {
			t.Fatal(err)
		}
		plantMappingEntry(t, kw.Mapping, kw.resolveKernel, sortedStringKeys(kw.GroupOf), novel[0], 512)
		assertBoundaryIdentity(t, kw, nets, novel[0])
	})
	t.Run("IGKW", func(t *testing.T) {
		ds := &dataset.Dataset{}
		for _, g := range []gpu.Spec{gpu.A100, gpu.A40, gpu.V100} {
			ds.Merge(plantKernelDataset(g, 3))
		}
		m, err := FitIGKW(ds, []gpu.Spec{gpu.A100, gpu.A40, gpu.V100}, gpu.TitanRTX, 512)
		if err != nil {
			t.Fatal(err)
		}
		plantMappingEntry(t, m.Mapping, m.resolveKernel, sortedStringKeys(m.GroupOf), novel[0], 512)
		assertBoundaryIdentity(t, m, nets, novel[0])
	})
}

// TestPlanMaxBatchNoOverflow checks MaxBatch's headroom: no segment of any
// zoo-sample plan evaluates its driver xPer·MaxBatch + xConst outside int64.
func TestPlanMaxBatchNoOverflow(t *testing.T) {
	kw, err := FitKW(buildSampleDataset(t, false), "A100", 512)
	if err != nil {
		t.Fatal(err)
	}
	largest := new(big.Int)
	for _, n := range zooSample() {
		p, err := kw.CompilePlan(n)
		if err != nil {
			t.Fatal(err)
		}
		if p.MaxBatch() != MaxBatch {
			t.Fatalf("%s: plan domain %d, want the global %d", n.Name, p.MaxBatch(), MaxBatch)
		}
		for _, seg := range p.segs {
			x := new(big.Int).Mul(big.NewInt(seg.xPer), big.NewInt(MaxBatch))
			x.Add(x, big.NewInt(seg.xConst))
			if !x.IsInt64() {
				t.Fatalf("%s: driver %d·%d + %d overflows int64", n.Name, seg.xPer, MaxBatch, seg.xConst)
			}
			if x.CmpAbs(largest) > 0 {
				largest.Abs(x)
			}
		}
	}
	t.Logf("largest driver at MaxBatch: %s", largest)
}

// TestPlanDomainMatchesShapeInference: a network too large for the global
// MaxBatch gets a plan whose domain ends exactly where shape inference
// starts refusing its counts. Inside the domain the plan equals the uncached
// path; one past it both paths return an error instead of a wrapped
// prediction.
func TestPlanDomainMatchesShapeInference(t *testing.T) {
	kw, err := FitKW(buildSampleDataset(t, false), "A100", 512)
	if err != nil {
		t.Fatal(err)
	}
	wide := dnn.New("wide", "custom", dnn.TaskImageClassification, dnn.Shape{3, 1 << 16, 1 << 16})
	wide.Conv(dnn.NetworkInput, 3, 1<<20, 3, 1, 1)
	p, err := kw.CompilePlan(wide)
	if err != nil {
		t.Fatal(err)
	}
	limit := p.MaxBatch()
	if limit <= 1 || limit >= MaxBatch {
		t.Fatalf("plan domain %d, want inside (1, %d)", limit, MaxBatch)
	}
	if err := wide.Clone().Infer(limit); err != nil {
		t.Fatalf("Infer at the domain's end %d: %v", limit, err)
	}
	if err := wide.Clone().Infer(limit + 1); err == nil {
		t.Fatalf("Infer one past the domain (%d) succeeded", limit+1)
	}
	got, err := kw.PredictNetwork(wide, limit)
	if err != nil {
		t.Fatal(err)
	}
	want, err := kw.PredictNetworkUncached(wide.Clone(), limit)
	if err != nil || got != want {
		t.Fatalf("at batch %d: plan %v, uncached %v (%v)", limit, got, want, err)
	}
	if _, err := kw.PredictNetwork(wide, limit+1); err == nil {
		t.Fatalf("PredictNetwork at %d, past the domain, returned no error", limit+1)
	}
	if _, err := kw.PredictSweep(wide, []int{1, limit + 1}); err == nil ||
		!strings.Contains(err.Error(), "exceeds the maximum "+strconv.Itoa(limit)) {
		t.Fatalf("PredictSweep past the domain: err = %v", err)
	}
}

// TestKWPlanConcurrent hammers one shared model from many goroutines (run
// under -race in CI) and checks every concurrent result against the serial
// reference. The uncached path mutates the network's shape state, so this
// also proves the plan path never touches it.
func TestKWPlanConcurrent(t *testing.T) {
	ds := buildSampleDataset(t, false)
	kw, err := FitKW(ds, "A100", 512)
	if err != nil {
		t.Fatal(err)
	}
	nets := zooSample()[:8]

	// Serial reference, computed first on private clones.
	want := map[string]units.Seconds{}
	for _, n := range nets {
		for _, batch := range planFixtureBatches {
			v, err := kw.PredictNetworkUncached(n.Clone(), batch)
			if err != nil {
				t.Fatal(err)
			}
			want[fmt.Sprintf("%s@%d", n.Name, batch)] = v
		}
	}

	const goroutines = 16
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				for i, n := range nets {
					batch := planFixtureBatches[(g+rep+i)%len(planFixtureBatches)]
					got, err := kw.PredictNetwork(n, batch)
					if err != nil {
						t.Errorf("goroutine %d: %s@%d: %v", g, n.Name, batch, err)
						return
					}
					if w := want[fmt.Sprintf("%s@%d", n.Name, batch)]; got != w {
						t.Errorf("goroutine %d: %s@%d: %v != %v", g, n.Name, batch, got, w)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestPlanSegments checks the piecewise structure: ResNet-50's GEMM tiles
// change with batch size, so its plan must carry more segments than entries,
// while every entry keeps at least one.
func TestPlanSegments(t *testing.T) {
	ds := buildSampleDataset(t, false)
	kw, err := FitKW(ds, "A100", 512)
	if err != nil {
		t.Fatal(err)
	}
	net, err := zoo.ByName("resnet50")
	if err != nil {
		t.Fatal(err)
	}
	p, err := kw.CompilePlan(net)
	if err != nil {
		t.Fatal(err)
	}
	if p.EntryCount() == 0 {
		t.Fatal("plan has no entries")
	}
	if p.SegmentCount() <= p.EntryCount() {
		t.Fatalf("resnet50 plan has %d segments for %d entries; want batch-dependent resolution (more segments)",
			p.SegmentCount(), p.EntryCount())
	}
}

// TestFittedMappingSubstitution: a model fitted on records traced at batch
// 64 under names that differ from the dispatch rules must substitute the
// traced names at 64 and nowhere else. The batch comes to plan compilation
// only through the fitted table (buildMapping, then signatureBatch into the
// model's mapping-batch set), so a plan that missed it would predict the
// dispatch names at 64 and disagree with the uncached path.
func TestFittedMappingSubstitution(t *testing.T) {
	const observed = 64
	net, err := zoo.ByName("resnet50")
	if err != nil {
		t.Fatal(err)
	}
	ds := plantKernelDataset(gpu.A100, 3)
	for i := range ds.Kernels {
		ds.Kernels[i].BatchSize = observed // the planted kernels join the batch-64 fit
	}
	ds.Kernels = append(ds.Kernels, renamedLayerRecords(t, net, observed)...)
	kw, err := FitKW(ds, "A100", observed)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []int{observed - 1, observed, observed + 1} {
		got, err := kw.PredictNetwork(net, b)
		if err != nil {
			t.Fatal(err)
		}
		want, err := kw.PredictNetworkUncached(net.Clone(), b)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("plan @%d: %v != uncached %v", b, got, want)
		}
		if substituted := got != predictUnmapped(t, kw, net, b); substituted != (b == observed) {
			t.Fatalf("@%d: substitution applied = %v, want %v", b, substituted, b == observed)
		}
	}
}

// assertSamePlan fails unless two plans are equal segment for segment: the
// same identity, batch domain, entry offsets and segment values.
func assertSamePlan(t *testing.T, got, want *Plan) {
	t.Helper()
	if got.Network != want.Network || got.GPU != want.GPU || got.maxBatch != want.maxBatch ||
		!slices.Equal(got.entryEnd, want.entryEnd) || !slices.Equal(got.segs, want.segs) {
		t.Fatalf("%s: plan through the warm layer memo differs from a cold compile "+
			"(domain %d vs %d, %d vs %d entries, %d vs %d segments)", want.Network,
			got.maxBatch, want.maxBatch, len(got.entryEnd), len(want.entryEnd), len(got.segs), len(want.segs))
	}
}

// TestPlanLayerMemoIdentity: a plan whose layers come from a warm layer
// memo equals, segment for segment, the plan a fresh model with an empty
// memo compiles. Networks compile in sequence on one model, so later ones
// copy the shapes earlier ones stored: the zoo sample in inference and in
// training, and 500 serve-novel-shaped specs whose conv/BatchNorm/ReLU
// shapes recur across specs.
func TestPlanLayerMemoIdentity(t *testing.T) {
	var novel []*dnn.Network
	for i := 0; i < 500; i++ {
		novel = append(novel, novelNetwork(7, i))
	}
	for _, tc := range []struct {
		name     string
		training bool
		nets     []*dnn.Network
	}{
		{"inference", false, append(zooSample(), novel...)},
		{"training", true, zooSample()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ds := buildSampleDataset(t, tc.training)
			fit := func() *KWModel {
				m, err := FitKWOptions(ds, "A100", 512, KWOptions{Training: tc.training})
				if err != nil {
					t.Fatal(err)
				}
				return m
			}
			warm, cold := fit(), fit()
			for _, n := range tc.nets {
				got, err := warm.CompilePlan(n)
				if err != nil {
					t.Fatal(err)
				}
				cold.layerMemo.Clear()
				want, err := cold.CompilePlan(n)
				if err != nil {
					t.Fatal(err)
				}
				assertSamePlan(t, got, want)
			}
			st := warm.layerMemo.Stats()
			if st.Hits == 0 {
				t.Fatalf("warm memo: no hits in %d lookups; later networks should reuse earlier shapes", st.Lookups)
			}
			t.Logf("warm memo: %d hits, %d misses", st.Hits, st.Misses)
		})
	}
}

// TestLayerMemoBound: every path that creates a KWModel gives its layer
// memo the same bound.
func TestLayerMemoBound(t *testing.T) {
	kwEnv, igkwEnv := persistFixtures(t)
	fitted, err := FitKW(plantKernelDataset(gpu.A100, 3), "A100", 512)
	if err != nil {
		t.Fatal(err)
	}
	ds := &dataset.Dataset{}
	for _, g := range []gpu.Spec{gpu.A100, gpu.A40, gpu.V100} {
		ds.Merge(plantKernelDataset(g, 3))
	}
	resolved, err := FitIGKW(ds, []gpu.Spec{gpu.A100, gpu.A40, gpu.V100}, gpu.TitanRTX, 512) // IGKWBase.Resolve
	if err != nil {
		t.Fatal(err)
	}
	models := map[string]*KWModel{"FitKW": fitted, "IGKWBase.Resolve": resolved}
	for name, env := range map[string][]byte{"Load(kw)": kwEnv, "Load(igkw)": igkwEnv} {
		m, err := Load(bytes.NewReader(env))
		if err != nil {
			t.Fatal(err)
		}
		models[name] = m.(*KWModel)
	}
	for name, m := range models {
		if m.layerMemo.Capacity != layerMemoCapacity {
			t.Errorf("%s: layer memo capacity %d, want %d", name, m.layerMemo.Capacity, layerMemoCapacity)
		}
	}
}

// TestPlanLayerMemoConcurrent compiles specs that share layer shapes from
// many goroutines on one fresh model (run under -race in CI): concurrent
// misses and hits on the same memo entries must all yield the plans a cold
// compile gives.
func TestPlanLayerMemoConcurrent(t *testing.T) {
	ds := buildSampleDataset(t, false)
	ref, err := FitKW(ds, "A100", 512)
	if err != nil {
		t.Fatal(err)
	}
	nets := make([]*dnn.Network, 48)
	want := make([]*Plan, len(nets))
	for i := range nets {
		nets[i] = novelNetwork(3, i)
		ref.layerMemo.Clear()
		if want[i], err = ref.CompilePlan(nets[i]); err != nil {
			t.Fatal(err)
		}
	}
	kw, err := FitKW(ds, "A100", 512)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := range nets {
				i := (j + g*len(nets)/goroutines) % len(nets)
				got, err := kw.CompilePlan(nets[i])
				if err != nil {
					t.Error(err)
					return
				}
				if !slices.Equal(got.segs, want[i].segs) || !slices.Equal(got.entryEnd, want[i].entryEnd) ||
					got.maxBatch != want[i].maxBatch {
					t.Errorf("goroutine %d: %s differs from its cold compile", g, nets[i].Name)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// renamedLayerRecords measures-by-construction every kernel of the network
// at the batch under a name that differs from kernels.ForLayer's, as a
// profiler tracing a different library version would: each layer's records
// carry its real signature, so fitting on them plants renamed mapping
// entries at that batch.
func renamedLayerRecords(t *testing.T, n *dnn.Network, batch int) []dataset.KernelRecord {
	t.Helper()
	c := n.Clone()
	if err := c.Infer(batch); err != nil {
		t.Fatal(err)
	}
	var recs []dataset.KernelRecord
	for li, l := range c.Layers {
		sig := l.Signature()
		for _, k := range kernels.ForLayer(l) {
			recs = append(recs, dataset.KernelRecord{
				Network: n.Name, GPU: "A100", BatchSize: batch,
				LayerIndex: li, LayerKind: string(l.Kind), LayerSignature: sig,
				Kernel:     "renamed_" + k.Name,
				LayerFLOPs: units.FLOPs(k.LayerFLOPs), LayerInputElems: k.LayerInputElems,
				LayerOutputElems: k.LayerOutputElems,
				Seconds:          units.Seconds(3e-6 + float64(k.LayerOutputElems)*1e-11),
			})
		}
	}
	return recs
}

// ------------------------------------------------------------- benchmarks

// benchKW builds the benchmark fixture: a KW model fitted on a tiny real
// dataset plus the ResNet-50 query network.
func benchKW(b *testing.B) (*KWModel, *dnn.Network) {
	b.Helper()
	nets := []*dnn.Network{zoo.MustResNet(50), zoo.MustResNet(18)}
	opt := dataset.DefaultBuildOptions()
	opt.Batches = 3
	opt.Warmup = 1
	opt.E2EBatchSizes = []int{512}
	ds, _, err := dataset.Build(nets, []gpu.Spec{gpu.A100}, opt)
	if err != nil {
		b.Fatal(err)
	}
	kw, err := FitKW(ds, "A100", 512)
	if err != nil {
		b.Fatal(err)
	}
	return kw, zoo.MustResNet(50)
}

// BenchmarkPlanCompile measures one full plan compilation (the cache-miss
// cost): shape inference at every breakpoint plus kernel resolution. The
// layer memo is cleared before each compile, outside the timer, so every
// layer shape is compiled rather than copied.
func BenchmarkPlanCompile(b *testing.B) {
	kw, net := benchKW(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		kw.layerMemo.Clear()
		b.StartTimer()
		if _, err := kw.CompilePlan(net); err != nil {
			b.Fatal(err)
		}
	}
}

// novelBenchModel fits the zoo-sample A100 model, whose mapping table has
// thousands of signatures, and draws 64 seeded never-seen conv/BN/ReLU
// networks. BenchmarkPlanCompile's two-network model hides any cost that
// scales with the table.
func novelBenchModel(b *testing.B) (*KWModel, []*dnn.Network) {
	kw, err := FitKW(buildSampleDataset(b, false), "A100", 512)
	if err != nil {
		b.Fatal(err)
	}
	nets := make([]*dnn.Network, 64)
	for i := range nets {
		nets[i] = novelNetwork(1, i)
	}
	return kw, nets
}

// BenchmarkPlanCompileNovel measures the serve-novel plan-cache miss on a
// model that has compiled nothing before: the layer memo is cleared before
// each compile, outside the timer.
func BenchmarkPlanCompileNovel(b *testing.B) {
	kw, nets := novelBenchModel(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		kw.layerMemo.Clear()
		b.StartTimer()
		if _, err := kw.CompilePlan(nets[i%len(nets)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanCompileNovelWarm measures the same compiles once the model
// has compiled every network's layer shapes: each layer is copied from the
// layer memo — the steady state of a replica serving never-repeated specs.
func BenchmarkPlanCompileNovelWarm(b *testing.B) {
	kw, nets := novelBenchModel(b)
	for _, n := range nets {
		if _, err := kw.CompilePlan(n); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := kw.CompilePlan(nets[i%len(nets)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKWPredictPlan measures the steady-state hot path: a repeated
// PredictNetwork against a warm plan cache. Compare with
// BenchmarkKWPredictUncached for the speedup the plan layer buys.
func BenchmarkKWPredictPlan(b *testing.B) {
	kw, net := benchKW(b)
	if _, err := kw.PredictNetwork(net, 512); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := kw.PredictNetwork(net, 64+(i%4)*64); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKWPredictUncached measures the pre-plan reference path: full shape
// inference plus per-kernel map lookups on every call.
func BenchmarkKWPredictUncached(b *testing.B) {
	kw, net := benchKW(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := kw.PredictNetworkUncached(net, 64+(i%4)*64); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKWPredictParallel measures contended throughput: every P issues
// queries against the same cached plan, the scheduler case-study pattern.
func BenchmarkKWPredictParallel(b *testing.B) {
	kw, net := benchKW(b)
	if _, err := kw.PredictNetwork(net, 512); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			i++
			if _, err := kw.PredictNetwork(net, 64+(i%4)*64); err != nil {
				b.Fatal(err)
			}
		}
	})
}
