package core

import (
	"fmt"
	"slices"

	"repro/internal/cache"
	"repro/internal/dataset"
	"repro/internal/dnn"
	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/regression"
	"repro/internal/units"
)

// KWModel is the Kernel-Wise model of §5.4. It consists of
//
//  1. a layer→kernel mapping table learned from the training traces, keyed
//     by the layer's structural signature ("the cuDNN library decides the
//     kernels to use according to the problem sizes, so we create a look-up
//     table that maps from the layer type and input/output size to the
//     kernel list");
//  2. a per-kernel classification into input-/operation-/output-driven
//     (ClassifyKernels, observation O5); and
//  3. grouped linear regressions — kernels with similar linear behaviour
//     share one model (groupKernels).
//
// Prediction sums the per-kernel regression outputs over the network's
// kernel list. Only network structure is consumed.
//
// The same form serves the Inter-GPU model of §5.5: IGKWBase.Resolve fills a
// KWModel for a never-measured target GPU whose lines are re-derived from the
// target's memory bandwidth (see igkw.go), so measured and bandwidth-resolved
// models share every predict, plan and persistence path.
//
// The exported fields are the persisted state (see persist.go).
type KWModel struct {
	// GPU is the device the model predicts: the GPU it was trained on, or
	// the target an IGKW model was resolved for.
	GPU string `json:"gpu"`
	// TrainGPUs names the measured GPUs an IGKW model was resolved from; it
	// is nil for a model fitted on its own GPU's measurements.
	TrainGPUs []string `json:"train_gpus,omitempty"`
	// TrainBatch is the batch size of the training measurements.
	TrainBatch int `json:"train_batch"`
	// Classif is the learned per-kernel classification.
	Classif map[string]Classification `json:"classification"`
	// Groups and GroupOf are the merged regression models and the
	// kernel→group index.
	Groups  []Group        `json:"groups"`
	GroupOf map[string]int `json:"group_of"`
	// Mapping is the layer-signature→kernel-list look-up table.
	Mapping map[string][]string `json:"mapping"`
	// Families holds one pooled classification per kernel family (tile
	// variants merged), used for kernels with too few training observations
	// to support their own regression, and for kernel names never seen in
	// training (e.g. a tile variant only a test network triggers).
	Families map[string]Classification `json:"families"`
	// ClassFallback holds one pooled regression per driver class, the last
	// resort for kernels whose family is also unknown. A missing driver
	// reads as the zero line, which predicts the minPrediction floor.
	ClassFallback map[Driver]regression.Line `json:"class_fallback"`
	// Training marks a training-step model (see KWOptions.Training).
	Training bool `json:"training"`

	// plans caches compiled prediction plans per network (see plan.go),
	// making repeated predictions allocation-free and safe for concurrent
	// use. The zero value is ready; the fields are unexported so persistence
	// never sees them. A model never changes after its constructor returns,
	// so nothing derived from it goes stale: a new fit is a new model.
	plans cache.Sharded[planKey, *Plan]
	// layerMemo holds every distinct layer shape the model's plans have
	// compiled, so a later plan copies it instead of compiling it again (see
	// compilePlan). Every constructor bounds it with initCaches.
	layerMemo cache.Sharded[layerShapeKey, distLayer]
	// mapBatches caches the batch sizes embedded in Mapping's signatures
	// for plan compilation.
	mapBatches mappingBatches
}

// KWOptions expose the kernel-wise model's design choices for ablation
// studies. The zero value is the paper's full design.
type KWOptions struct {
	// ForceDriver, when non-empty, skips the R²-based classification and
	// regresses every kernel against the given driver — ablating
	// observation O5's classification step.
	ForceDriver Driver
	// DisableGrouping gives every kernel its own regression instead of
	// merging similar kernels into shared models.
	DisableGrouping bool
	// DisableFamilyFallback removes the family-pooled middle tier of the
	// prediction fallback hierarchy; sparse and unseen kernels drop
	// straight to the per-class pooled lines.
	DisableFamilyFallback bool
	// Training marks a model trained on training-step measurements; its
	// predictions lower layers through the training kernel pipeline
	// (forward + backward + optimizer).
	Training bool
}

// FitKW trains a Kernel-Wise model from the dataset's kernel records on the
// given GPU at the given batch size, with the paper's full design.
func FitKW(ds *dataset.Dataset, gpuName string, trainBatch int) (*KWModel, error) {
	return FitKWOptions(ds, gpuName, trainBatch, KWOptions{})
}

// FitKWOptions is FitKW with explicit design-choice options: the GPU's
// shared per-GPU fit (fitGPU), then grouping and the options.
func FitKWOptions(ds *dataset.Dataset, gpuName string, trainBatch int, opt KWOptions) (*KWModel, error) {
	sel := trainIndices(ds, []string{gpuName}, trainBatch)[0]
	if len(sel) == 0 {
		return nil, errNoRecords("KW", gpuName)
	}
	recs := ds.Kernels
	f := fitGPU(recs, sel)
	m := &KWModel{
		GPU:           gpuName,
		TrainBatch:    trainBatch,
		Classif:       f.kernels.classif,
		Mapping:       f.mapping,
		Families:      f.families.classif,
		ClassFallback: f.pooled,
		Training:      opt.Training,
	}
	if opt.ForceDriver != "" {
		m.Classif = forceDriver(m.Classif, recs, f.kernels.index, opt.ForceDriver)
		m.Families = forceDriver(m.Families, recs, f.families.index, opt.ForceDriver)
		m.ClassFallback = classFallbacks(m.Classif, recs, sel, f.kernels.index)
	}
	if opt.DisableGrouping {
		m.Groups, m.GroupOf = singletonGroups(m.Classif)
	} else {
		m.Groups, m.GroupOf = groupKernels(m.Classif, recs, f.kernels.index)
	}
	if opt.DisableFamilyFallback {
		m.Families = map[string]Classification{}
	}
	m.initCaches()
	return m, nil
}

// gpuFit is one GPU's fit at the train batch, shared by FitKWOptions and
// FitIGKWBase: the GPU's records, indexed once by kernel and by family,
// their kernel- and family-level classifications, the mapping table and the
// per-driver pooled lines (the KW class fallbacks). recs is the dataset's
// whole kernel record slice, which the indices read in place.
type gpuFit struct {
	recs     []dataset.KernelRecord
	kernels  classified
	families classified
	mapping  map[string][]string
	pooled   map[Driver]regression.Line
}

// classified is one granularity's classification together with the record
// indices behind each name, so a refit reads the name's records directly.
type classified struct {
	classif map[string]Classification
	index   map[string][]int
}

// fitGPU fits the records sel selects (indices into recs, ascending): the
// GPU's records at the train batch. Every fit reads them through the one
// kernel index and the family index derived from it, in record order.
func fitGPU(recs []dataset.KernelRecord, sel []int) gpuFit {
	kernels := recordIndex(recs, sel)
	families := familyIndex(kernels)
	f := gpuFit{
		recs:     recs,
		kernels:  classified{classifyIndexed(recs, kernels), kernels},
		families: classified{classifyIndexed(recs, families), families},
		mapping:  buildMapping(recs, sel),
	}
	f.pooled = classFallbacks(f.kernels.classif, recs, sel, kernels)
	return f
}

// initCaches sizes the model's derived caches. FitKWOptions,
// IGKWBase.Resolve and Load — every path that creates a KWModel — call it
// before the model is shared.
func (m *KWModel) initCaches() { m.layerMemo.Capacity = layerMemoCapacity }

// RegisterMetrics exposes this model's plan cache and layer memo through
// the global obs registry as core_kw_plan_cache_* and core_kw_layer_memo_*,
// rebinding the gauges from whichever model held them before. The serving
// registry calls it on every publish, so the gauges describe the model
// that serves.
func (m *KWModel) RegisterMetrics() {
	m.plans.RegisterMetrics("core_kw_plan_cache")
	m.layerMemo.RegisterMetrics("core_kw_layer_memo")
}

// trainIndices selects the dataset's kernel records at the train batch of
// every named GPU in one counting pass and one filling pass over
// ds.Kernels: result i lists the indices of gpuNames[i]'s records, in
// dataset order, in a slice allocated once. The fits read the records in
// place through these indices. Training sets are a handful of GPUs, so a
// linear scan of the names finds each record's slot.
func trainIndices(ds *dataset.Dataset, gpuNames []string, trainBatch int) [][]int {
	slot := func(r *dataset.KernelRecord) int {
		if r.BatchSize != trainBatch {
			return -1
		}
		return slices.Index(gpuNames, r.GPU)
	}
	counts := make([]int, len(gpuNames))
	for i := range ds.Kernels {
		if s := slot(&ds.Kernels[i]); s >= 0 {
			counts[s]++
		}
	}
	sel := make([][]int, len(gpuNames))
	for s, n := range counts {
		sel[s] = make([]int, 0, n)
	}
	for i := range ds.Kernels {
		if s := slot(&ds.Kernels[i]); s >= 0 {
			sel[s] = append(sel[s], i)
		}
	}
	// A name listed twice shares its first listing's records.
	for i, name := range gpuNames {
		sel[i] = sel[slices.Index(gpuNames, name)]
	}
	return sel
}

// indexedXY reads the indexed records' driver variable and duration, in
// index order.
func indexedXY(recs []dataset.KernelRecord, idx []int, d Driver) (xs, ys []float64) {
	xs = make([]float64, len(idx))
	ys = make([]float64, len(idx))
	for i, ri := range idx {
		xs[i] = driverX(recs[ri], d)
		ys[i] = float64(recs[ri].Seconds)
	}
	return xs, ys
}

// forceDriver refits every line of a classification — kernels or
// families, with the record index it was fitted from — on a single imposed
// driver.
func forceDriver(classif map[string]Classification, recs []dataset.KernelRecord, byKey map[string][]int, d Driver) map[string]Classification {
	out := make(map[string]Classification, len(classif))
	for name, c := range classif {
		idx := byKey[name]
		xs, ys := indexedXY(recs, idx, d)
		forced := Classification{Kernel: name, Driver: d, R2: c.R2, N: len(idx)}
		if line, err := regression.Fit(xs, ys); err == nil {
			forced.Line = line
		} else {
			forced.Line = regression.Line{Intercept: regression.Mean(ys), N: len(ys)}
		}
		out[name] = forced
	}
	return out
}

// classFallbacks pools the selected records of each driver class into one
// regression, in record order. Each record's class is its kernel's, written
// through the kernel index rather than looked up per record.
func classFallbacks(classif map[string]Classification, recs []dataset.KernelRecord, sel []int, byKernel map[string][]int) map[Driver]regression.Line {
	drivers := Drivers()
	class := make([]int8, len(recs))
	counts := make([]int, len(drivers))
	for name, idx := range byKernel {
		d := int8(slices.Index(drivers, classif[name].Driver))
		for _, ri := range idx {
			class[ri] = d
		}
		if d >= 0 {
			counts[d] += len(idx)
		}
	}
	xs, ys := make([][]float64, len(drivers)), make([][]float64, len(drivers))
	for d := range drivers {
		xs[d] = make([]float64, 0, counts[d])
		ys[d] = make([]float64, 0, counts[d])
	}
	for _, ri := range sel {
		if d := class[ri]; d >= 0 {
			xs[d] = append(xs[d], driverX(recs[ri], drivers[d]))
			ys[d] = append(ys[d], float64(recs[ri].Seconds))
		}
	}
	out := make(map[Driver]regression.Line, len(drivers))
	for d, driver := range drivers {
		if line, err := regression.Fit(xs[d], ys[d]); err == nil {
			out[driver] = line
		} else {
			out[driver] = regression.Line{Intercept: regression.Mean(ys[d])}
		}
	}
	return out
}

// singletonGroups wraps every sufficiently-observed kernel in its own group.
func singletonGroups(classif map[string]Classification) ([]Group, map[string]int) {
	var groups []Group
	groupOf := map[string]int{}
	for _, name := range SortedKernels(classif) {
		c := classif[name]
		if c.N < MinKernelObservations {
			continue
		}
		groupOf[name] = len(groups)
		groups = append(groups, Group{Driver: c.Driver, Kernels: []string{name}, Line: c.Line})
	}
	return groups, groupOf
}

// buildMapping constructs the layer-signature→kernel-list table from the
// selected training records in one pass. Collection writes each layer
// instance's kernels contiguously in launch order, so a change of network,
// GPU, batch size or layer index between neighbouring records closes an
// instance; its kernel names are committed under the instance's signature,
// first seen wins (duplicate signatures across networks dispatch identical
// kernels by construction). An instance never reaches past its own run of
// records, so a dataset holding the same collection twice maps like a
// single copy.
func buildMapping(recs []dataset.KernelRecord, sel []int) map[string][]string {
	mapping := map[string][]string{}
	start := 0
	for p, ri := range sel {
		r := &recs[ri]
		if p+1 < len(sel) {
			if next := &recs[sel[p+1]]; next.Network == r.Network && next.GPU == r.GPU &&
				next.BatchSize == r.BatchSize && next.LayerIndex == r.LayerIndex {
				continue
			}
		}
		if _, ok := mapping[r.LayerSignature]; !ok {
			names := make([]string, p+1-start)
			for j := range names {
				names[j] = recs[sel[start+j]].Kernel
			}
			mapping[r.LayerSignature] = names
		}
		start = p + 1
	}
	return mapping
}

// Name implements Predictor: "IGKW" for a model resolved from other GPUs'
// measurements, "KW" otherwise.
func (m *KWModel) Name() string {
	if len(m.TrainGPUs) > 0 {
		return "IGKW"
	}
	return "KW"
}

// GPUName implements Predictor.
func (m *KWModel) GPUName() string { return m.GPU }

// ModelCount returns the number of regression models (groups) the KW model
// maintains — the paper's "for 182 kernels recorded, we built 83 linear
// regression models".
func (m *KWModel) ModelCount() int { return len(m.Groups) }

// KernelCount returns the number of distinct kernels classified.
func (m *KWModel) KernelCount() int { return len(m.Classif) }

// PredictKernel predicts one kernel invocation's duration from its name and
// the layer-level driver candidates, through the same fallback chain plans
// compile with (resolveKernel): the kernel's group, else its family's pooled
// model, else the class fallback.
func (m *KWModel) PredictKernel(name string, layerFLOPs units.FLOPs, layerInElems, layerOutElems int64) units.Seconds {
	line, d := m.resolveKernel(name, layerFLOPs == 0)
	x := float64(layerOutElems)
	switch d {
	case DriverInput:
		x = float64(layerInElems)
	case DriverOperation:
		x = float64(layerFLOPs)
	}
	return clampTime(units.Seconds(line.Predict(x)))
}

// kernelsForLayer resolves a layer to its kernel list: first through the
// learned mapping table; for signatures never observed in training, through
// the deterministic library-dispatch rules (the same rules the mapping table
// was traced from — cuDNN's dispatch is public behaviour, not a measured
// quantity).
func (m *KWModel) kernelsForLayer(l *dnn.Layer) []kernels.Kernel {
	var ks []kernels.Kernel
	if m.Training {
		ks = kernels.ForLayerTraining(l)
	} else {
		ks = kernels.ForLayer(l)
	}
	if names, ok := m.Mapping[l.Signature()]; ok && len(names) == len(ks) {
		// Use the traced names (they match the dispatch rules by
		// construction; the check guards against stale tables).
		for i := range ks {
			ks[i].Name = names[i]
		}
	}
	return ks
}

// PredictNetwork implements Predictor: the sum over the network's kernel
// list of the per-kernel predictions. Queries are served from a compiled
// prediction plan (see plan.go) cached per network, so repeated predictions
// at any batch size run allocation-free, never mutate n, and are safe to
// issue from many goroutines. Results are bit-identical to
// PredictNetworkUncached.
//
//dnnperf:allocfree
func (m *KWModel) PredictNetwork(n *dnn.Network, batch int) (units.Seconds, error) {
	tm := obs.StartTimer(metricKWPredict)
	defer tm.Stop()
	if batch <= 0 || batch > MaxBatch {
		// Route through the uncached path for its validation error.
		//lint:ignore allocfree the invalid-batch path is off the steady state by definition
		return m.PredictNetworkUncached(n, batch)
	}
	p, err := m.planFor(n)
	if err != nil || batch > p.maxBatch {
		// Compilation fails only for networks the uncached path also rejects,
		// and shape inference rejects the counts a batch beyond the plan's
		// domain overflows; take it so callers see the familiar errors.
		//lint:ignore allocfree the compile-failure path is off the steady state by definition
		return m.PredictNetworkUncached(n, batch)
	}
	return p.Predict(batch), nil
}

// PredictSweep predicts the network at every batch size in batches, in
// input order, through one pass over the compiled plan. Results are
// bit-identical to calling PredictNetwork per batch size; the win is that
// the per-call overhead (fingerprint, cache lookup, timer) is paid once for
// the whole sweep and the plan's segments stay hot across batch sizes. All
// batch sizes must be in [1, MaxBatch] and within the plan's own domain
// (Plan.MaxBatch). If plan compilation fails the sweep falls back to the
// uncached path, mirroring PredictNetwork.
func (m *KWModel) PredictSweep(n *dnn.Network, batches []int) ([]units.Seconds, error) {
	tm := obs.StartTimer(metricSweepPredict)
	defer tm.Stop()
	for _, b := range batches {
		if b <= 0 {
			return nil, fmt.Errorf("core: %s sweep of %q: batch size %d must be positive", m.Name(), n.Name, b)
		}
		if b > MaxBatch {
			return nil, errBatchTooLarge(m.Name(), n.Name, b, MaxBatch)
		}
	}
	observeSweep(len(batches))
	p, err := m.planFor(n)
	if err != nil {
		return sweepUncached(n, batches, m.PredictNetworkUncached)
	}
	for _, b := range batches {
		if b > p.maxBatch {
			return nil, errBatchTooLarge(m.Name(), n.Name, b, p.maxBatch)
		}
	}
	return p.PredictSweep(batches), nil
}

// PredictNetworkUncached is the reference prediction path: shape-infer the
// network at the batch size (mutating n) and sum per-kernel predictions. It
// is the behavior PredictNetwork had before plan compilation and remains the
// ground truth plans are tested against.
func (m *KWModel) PredictNetworkUncached(n *dnn.Network, batch int) (units.Seconds, error) {
	if batch > MaxBatch {
		return 0, errBatchTooLarge(m.Name(), n.Name, batch, MaxBatch)
	}
	if err := n.Infer(batch); err != nil {
		return 0, err
	}
	var total units.Seconds
	for _, l := range n.Layers {
		for _, k := range m.kernelsForLayer(l) {
			total += m.PredictKernel(k.Name, units.FLOPs(k.LayerFLOPs), k.LayerInputElems, k.LayerOutputElems)
		}
	}
	return total, nil
}

// planFor returns the cached compiled plan for the network, compiling it on
// first use. Concurrent callers for the same network share one compilation.
// The cache hit path is allocation-free; the closure below only costs (and
// only runs) on a compile miss.
//
//dnnperf:allocfree
func (m *KWModel) planFor(n *dnn.Network) (*Plan, error) {
	key := planKey{name: n.Name, fp: networkFingerprint(n, m.Training)}
	//lint:ignore allocfree the GetOrCompute closure allocates only on the compile miss path
	return m.plans.GetOrCompute(key, func() (*Plan, error) {
		return m.CompilePlan(n)
	})
}

// CompiledPlan returns the model's cached compiled plan for the network,
// compiling it on first use — the exact plan PredictNetwork executes.
// Exposed so callers that attribute latency per stage (serve's /predict) can
// time compile and predict separately while producing bit-identical
// predictions.
func (m *KWModel) CompiledPlan(n *dnn.Network) (*Plan, error) { return m.planFor(n) }

// CompilePlan compiles a standalone prediction plan for the network without
// touching the model's plan cache; layer shapes the model has compiled
// before come from its layer memo. The input network is never mutated.
func (m *KWModel) CompilePlan(n *dnn.Network) (*Plan, error) {
	return compilePlan(n, m.GPU, m.Training, m.Mapping, m.mapBatches.get(m.Mapping), m.resolveKernel, &m.layerMemo)
}

// resolveKernel maps a kernel name to its regression line and driver through
// the three-tier fallback: the kernel's group; for a sparse or unseen kernel,
// its family's pooled model; for an unknown family, the pooled class
// fallback, with the class guessed by an operation-first heuristic (kernels
// carrying FLOPs are treated as main kernels, zero-FLOPs kernels as
// output-driven data movement). PredictKernel resolves per call; plans
// resolve once, at compile time.
func (m *KWModel) resolveKernel(name string, flopsZero bool) (regression.Line, Driver) {
	if gi, ok := m.GroupOf[name]; ok {
		g := m.Groups[gi]
		return g.Line, g.Driver
	}
	if c, ok := m.Families[FamilyOf(name)]; ok && c.N >= MinKernelObservations {
		return c.Line, c.Driver
	}
	d := DriverOperation
	if flopsZero {
		d = DriverOutput
	}
	return m.ClassFallback[d], d
}

// launchCount returns the number of kernels one batch of the network
// dispatches, read off the cached plan (the count is batch-invariant: batch
// size changes kernel *names*, never how many a layer launches). Returns 0
// for networks that fail to compile.
func (m *KWModel) launchCount(n *dnn.Network) int {
	p, err := m.planFor(n)
	if err != nil {
		return 0
	}
	return p.EntryCount()
}

// PredictLayerTime predicts one layer's execution time: the sum of its
// kernels' predictions. The layer must have inferred shapes. This is the
// per-layer granularity the disaggregated-memory case study schedules with.
// The study builds each network's job list once (disagg.JobsFromNetwork)
// and then sweeps it, so each layer is predicted once and nothing here is
// cached.
func (m *KWModel) PredictLayerTime(l *dnn.Layer) units.Seconds {
	var total units.Seconds
	for _, k := range m.kernelsForLayer(l) {
		total += m.PredictKernel(k.Name, units.FLOPs(k.LayerFLOPs), k.LayerInputElems, k.LayerOutputElems)
	}
	return total
}

// PredictRecords predicts the end-to-end time implied by a set of kernel
// records (their structural fields only — durations are ignored). Useful
// for evaluating the regression layer in isolation from the mapping table.
func (m *KWModel) PredictRecords(recs []dataset.KernelRecord) units.Seconds {
	var total units.Seconds
	for _, r := range recs {
		total += m.PredictKernel(r.Kernel, r.LayerFLOPs, r.LayerInputElems, r.LayerOutputElems)
	}
	return total
}
