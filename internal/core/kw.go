package core

import (
	"fmt"
	"sort"
	"strconv"

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
//     share one model (GroupKernels).
//
// Prediction sums the per-kernel regression outputs over the network's
// kernel list. Only network structure is consumed.
type KWModel struct {
	// GPU is the device the model was trained on.
	GPU string
	// TrainBatch is the batch size of the training measurements.
	TrainBatch int
	// Classif is the learned per-kernel classification.
	Classif map[string]Classification
	// Groups and GroupOf are the merged regression models and the
	// kernel→group index.
	Groups  []Group
	GroupOf map[string]int
	// Mapping is the layer-signature→kernel-list look-up table.
	Mapping map[string][]string
	// Families holds one pooled classification per kernel family (tile
	// variants merged), used for kernels with too few training observations
	// to support their own regression, and for kernel names never seen in
	// training (e.g. a tile variant only a test network triggers).
	Families map[string]Classification
	// ClassFallback holds one pooled regression per driver class, the last
	// resort for kernels whose family is also unknown.
	ClassFallback map[Driver]regression.Line
	// Training marks a training-step model (see KWOptions.Training).
	Training bool

	// online holds the incremental-learning state (see online.go).
	online *onlineState

	// plans caches compiled prediction plans per network and layerPlans
	// caches resolved per-layer term lists (see plan.go). Both make repeated
	// predictions allocation-free and safe for concurrent use; ObserveRecords
	// invalidates them. Zero values are ready; the fields are unexported so
	// persistence never sees them.
	plans      cache.Sharded[planKey, *Plan]
	layerPlans cache.Sharded[layerKey, []layerTerm]
	// mapBatches caches the batch sizes embedded in Mapping's signatures
	// for plan compilation; ObserveRecords resets it with the caches.
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

// FitKWOptions is FitKW with explicit design-choice options.
func FitKWOptions(ds *dataset.Dataset, gpuName string, trainBatch int, opt KWOptions) (*KWModel, error) {
	var recs []dataset.KernelRecord
	for _, r := range ds.Kernels {
		if r.GPU == gpuName && r.BatchSize == trainBatch {
			recs = append(recs, r)
		}
	}
	if len(recs) == 0 {
		return nil, errNoRecords("KW", gpuName)
	}
	return fitKWRecords(recs, buildMapping(recs), gpuName, trainBatch, opt)
}

// fitKWRecords assembles the model from one cell's kernel records (already
// filtered to gpuName/trainBatch, in dataset record order) and its
// layer-signature mapping table. Both FitKWOptions and FitKWFromStatsOptions
// (which replays a streamed cell's observation log) end here, so the two
// paths share every bit of the fitting arithmetic.
func fitKWRecords(recs []dataset.KernelRecord, mapping map[string][]string, gpuName string, trainBatch int, opt KWOptions) (*KWModel, error) {
	classif := ClassifyKernels(recs)
	if opt.ForceDriver != "" {
		classif = forceDriver(classif, recs, opt.ForceDriver)
	}
	var groups []Group
	var groupOf map[string]int
	if opt.DisableGrouping {
		groups, groupOf = singletonGroups(classif)
	} else {
		groups, groupOf = GroupKernels(classif, recs)
	}

	m := &KWModel{
		GPU:           gpuName,
		TrainBatch:    trainBatch,
		Classif:       classif,
		Groups:        groups,
		GroupOf:       groupOf,
		Mapping:       mapping,
		Families:      ClassifyFamilies(recs),
		ClassFallback: classFallbacks(classif, recs),
	}
	if opt.ForceDriver != "" {
		m.Families = forceDriver(m.Families, familyRecords(recs), opt.ForceDriver)
	}
	if opt.DisableFamilyFallback {
		m.Families = map[string]Classification{}
	}
	m.Training = opt.Training
	m.initOnline(recs)
	m.plans.RegisterMetrics("core_kw_plan_cache")
	m.layerPlans.RegisterMetrics("core_kw_layer_cache")
	return m, nil
}

// forceDriver refits every kernel's line on a single imposed driver.
func forceDriver(classif map[string]Classification, recs []dataset.KernelRecord, d Driver) map[string]Classification {
	byKernel := map[string][]dataset.KernelRecord{}
	for _, r := range recs {
		byKernel[r.Kernel] = append(byKernel[r.Kernel], r)
	}
	out := make(map[string]Classification, len(classif))
	for name, c := range classif {
		rs := byKernel[name]
		var xs, ys []float64
		for _, r := range rs {
			xs = append(xs, driverX(r, d))
			ys = append(ys, float64(r.Seconds))
		}
		forced := Classification{Kernel: name, Driver: d, R2: c.R2, N: len(rs)}
		if line, err := regression.Fit(xs, ys); err == nil {
			forced.Line = line
		} else {
			forced.Line = regression.Line{Intercept: regression.Mean(ys), N: len(ys)}
		}
		out[name] = forced
	}
	return out
}

// familyRecords rewrites record kernel names to their families.
func familyRecords(recs []dataset.KernelRecord) []dataset.KernelRecord {
	out := make([]dataset.KernelRecord, len(recs))
	copy(out, recs)
	for i := range out {
		out[i].Kernel = FamilyOf(out[i].Kernel)
	}
	return out
}

// classFallbacks pools all records of each driver class into one regression.
func classFallbacks(classif map[string]Classification, recs []dataset.KernelRecord) map[Driver]regression.Line {
	xs := map[Driver][]float64{}
	ys := map[Driver][]float64{}
	for _, r := range recs {
		c, ok := classif[r.Kernel]
		if !ok {
			continue
		}
		xs[c.Driver] = append(xs[c.Driver], driverX(r, c.Driver))
		ys[c.Driver] = append(ys[c.Driver], float64(r.Seconds))
	}
	out := map[Driver]regression.Line{}
	for _, d := range Drivers() {
		if line, err := regression.Fit(xs[d], ys[d]); err == nil {
			out[d] = line
		} else {
			out[d] = regression.Line{Intercept: regression.Mean(ys[d])}
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

// buildMapping constructs the layer-signature→kernel-list table from
// training records. Kernel order within a layer follows record order (launch
// order); duplicate (signature) entries across networks are identical by
// construction, so the first wins.
func buildMapping(recs []dataset.KernelRecord) map[string][]string {
	type layerKey struct {
		net string
		bs  int
		idx int
	}
	perLayer := map[layerKey][]string{}
	sigOf := map[layerKey]string{}
	var order []layerKey
	for _, r := range recs {
		k := layerKey{r.Network, r.BatchSize, r.LayerIndex}
		if _, ok := perLayer[k]; !ok {
			order = append(order, k)
		}
		perLayer[k] = append(perLayer[k], r.Kernel)
		sigOf[k] = r.LayerSignature
	}
	mapping := map[string][]string{}
	for _, k := range order {
		sig := sigOf[k]
		if _, ok := mapping[sig]; !ok {
			mapping[sig] = perLayer[k]
		}
	}
	return mapping
}

// Name implements Predictor.
func (m *KWModel) Name() string { return "KW" }

// GPUName implements Predictor.
func (m *KWModel) GPUName() string { return m.GPU }

// ModelCount returns the number of regression models (groups) the KW model
// maintains — the paper's "for 182 kernels recorded, we built 83 linear
// regression models".
func (m *KWModel) ModelCount() int { return len(m.Groups) }

// KernelCount returns the number of distinct kernels classified.
func (m *KWModel) KernelCount() int { return len(m.Classif) }

// PredictKernel predicts one kernel invocation's duration from its name and
// the layer-level driver candidates.
func (m *KWModel) PredictKernel(name string, layerFLOPs units.FLOPs, layerInElems, layerOutElems int64) units.Seconds {
	x := func(d Driver) float64 {
		switch d {
		case DriverInput:
			return float64(layerInElems)
		case DriverOperation:
			return float64(layerFLOPs)
		default:
			return float64(layerOutElems)
		}
	}
	if gi, ok := m.GroupOf[name]; ok {
		g := m.Groups[gi]
		return clampTime(units.Seconds(g.Line.Predict(x(g.Driver))))
	}
	// Sparse or unseen kernel: fall back to its family's pooled model.
	if c, ok := m.Families[FamilyOf(name)]; ok && c.N >= MinKernelObservations {
		return clampTime(units.Seconds(c.Line.Predict(x(c.Driver))))
	}
	// Unknown family: guess the class from an operation-first heuristic and
	// use the pooled class fallback. Kernels carrying FLOPs are treated as
	// main kernels; zero-FLOPs kernels as output-driven data movement.
	d := DriverOperation
	if layerFLOPs == 0 {
		d = DriverOutput
	}
	return clampTime(units.Seconds(m.ClassFallback[d].Predict(x(d))))
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
	if err != nil {
		// Compilation fails only for networks the uncached path also rejects;
		// take it so callers see the familiar shape-inference errors.
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
// batch sizes must be in [1, MaxBatch]. If plan compilation fails the sweep
// falls back to the uncached path, mirroring PredictNetwork.
func (m *KWModel) PredictSweep(n *dnn.Network, batches []int) ([]units.Seconds, error) {
	tm := obs.StartTimer(metricSweepPredict)
	defer tm.Stop()
	for _, b := range batches {
		if b <= 0 {
			return nil, fmt.Errorf("core: KW sweep of %q: batch size %d must be positive", n.Name, b)
		}
		if b > MaxBatch {
			return nil, errBatchTooLarge("KW", n.Name, b)
		}
	}
	observeSweep(len(batches))
	p, err := m.planFor(n)
	if err != nil {
		return sweepUncached(n, batches, m.PredictNetworkUncached)
	}
	return p.PredictSweep(batches), nil
}

// PredictNetworkUncached is the reference prediction path: shape-infer the
// network at the batch size (mutating n) and sum per-kernel predictions. It
// is the behavior PredictNetwork had before plan compilation and remains the
// ground truth plans are tested against.
func (m *KWModel) PredictNetworkUncached(n *dnn.Network, batch int) (units.Seconds, error) {
	if batch > MaxBatch {
		return 0, errBatchTooLarge("KW", n.Name, batch)
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
// Exposed so callers that attribute latency per stage (the serve tracing
// path) can time compile and predict separately while producing
// bit-identical predictions.
func (m *KWModel) CompiledPlan(n *dnn.Network) (*Plan, error) { return m.planFor(n) }

// CompilePlan compiles a standalone prediction plan for the network without
// touching the model's plan cache. The input network is never mutated.
func (m *KWModel) CompilePlan(n *dnn.Network) (*Plan, error) {
	return compilePlan(n, m.GPU, m.Training, m.Mapping, m.mapBatches.get(m.Mapping), m.resolveKernel)
}

// resolveKernel maps a kernel name to the concrete regression line and driver
// PredictKernel would use — the same three-tier fallback (group → family →
// class), resolved once at plan-compile time.
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
// Resolved (line, driver value) terms are cached per layer signature, so the
// scheduling loops that call this per layer per configuration pay the kernel
// resolution once.
func (m *KWModel) PredictLayerTime(l *dnn.Layer) units.Seconds {
	key := layerKeyFor(l, m.Training)
	terms, err := m.layerPlans.GetOrCompute(key, func() ([]layerTerm, error) {
		ks := m.kernelsForLayer(l)
		out := make([]layerTerm, len(ks))
		for i, k := range ks {
			line, driver := m.resolveKernel(k.Name, k.LayerFLOPs == 0)
			var x float64
			switch driver {
			case DriverInput:
				x = float64(k.LayerInputElems)
			case DriverOperation:
				x = float64(k.LayerFLOPs)
			default:
				x = float64(k.LayerOutputElems)
			}
			out[i] = layerTerm{line: line, x: x}
		}
		return out, nil
	})
	if err != nil {
		return 0 // unreachable: the compute function never errors
	}
	return predictTerms(terms)
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

// GroupSummaries renders a sorted per-group description for reports.
func (m *KWModel) GroupSummaries() []string {
	out := make([]string, 0, len(m.Groups))
	for _, g := range m.Groups {
		names := append([]string(nil), g.Kernels...)
		sort.Strings(names)
		out = append(out, string(g.Driver)+": "+names[0]+" (+"+strconv.Itoa(len(names)-1)+" more) "+g.Line.String())
	}
	sort.Strings(out)
	return out
}
