package core

import (
	"fmt"
	"math"

	"repro/internal/cache"
	"repro/internal/dataset"
	"repro/internal/dnn"
	"repro/internal/gpu"
	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/regression"
	"repro/internal/units"
)

// IGKWModel is the Inter-GPU Kernel-Wise model of §5.5: it predicts a GPU
// that is absent from the training set by re-deriving each kernel's
// regression slope from the target's *theoretical memory bandwidth*.
//
// For every kernel, the slope of its kernel-wise regression on a GPU
// represents the achieved processing rate (the reciprocal of the slope is
// the achieved FLOPS for operation-driven kernels, §4 O6). Observation O6 —
// bandwidth efficiency is roughly stable across GPUs while compute
// efficiency is not — means this rate is approximately linear in the GPU's
// theoretical bandwidth. The model therefore fits, per kernel,
//
//	rate(GPU) = a + b·bandwidth(GPU)
//
// over the training GPUs, and instantiates a kernel-wise predictor for the
// target from rate(target bandwidth). Regression intercepts (launch
// overheads) are carried over as the training-GPU average.
type IGKWModel struct {
	// TrainGPUs names the GPUs whose measurements trained the model.
	TrainGPUs []string
	// Target is the GPU being predicted (never measured).
	Target gpu.Spec
	// TrainBatch is the batch size of the training measurements.
	TrainBatch int

	// Lines holds the per-kernel time regressions resolved for the target.
	Lines map[string]regression.Line
	// DriverOf holds each kernel's (majority-vote) driver class.
	DriverOf map[string]Driver
	// Mapping is the union layer-signature→kernel-list table.
	Mapping map[string][]string
	// FamilyLines and FamilyDriver hold bandwidth-scaled family-level models
	// for kernels too sparse (or unseen) to carry their own.
	FamilyLines  map[string]regression.Line
	FamilyDriver map[string]Driver
	// ClassFallback holds per-driver pooled lines resolved for the target.
	ClassFallback map[Driver]regression.Line

	// plans caches compiled prediction plans per network (see plan.go),
	// making the bandwidth design-space sweeps allocation-free per query.
	// Unexported, so persistence never sees it.
	plans cache.Sharded[planKey, *Plan]
	// mapBatches caches the batch sizes embedded in Mapping's signatures
	// for plan compilation.
	mapBatches mappingBatches
}

// IGKWBase is the target-independent part of the inter-GPU model: per-GPU
// kernel classifications and the union mapping table. Resolving a target GPU
// from a base is cheap, which is what makes bandwidth design-space sweeps
// (case study 1) take milliseconds per point.
type IGKWBase struct {
	fits       []gpuFit
	famFits    []gpuFit
	trainBatch int
	mapping    map[string][]string
}

// FitIGKWBase performs the per-GPU training work shared by every target.
func FitIGKWBase(ds *dataset.Dataset, trainGPUs []gpu.Spec, trainBatch int) (*IGKWBase, error) {
	if len(trainGPUs) < 2 {
		return nil, fmt.Errorf("core: IGKW model needs at least 2 training GPUs, got %d", len(trainGPUs))
	}
	b := &IGKWBase{trainBatch: trainBatch, mapping: map[string][]string{}}
	for _, g := range trainGPUs {
		var recs []dataset.KernelRecord
		for _, r := range ds.Kernels {
			if r.GPU == g.Name && r.BatchSize == trainBatch {
				recs = append(recs, r)
			}
		}
		if len(recs) == 0 {
			return nil, errNoRecords("IGKW", g.Name)
		}
		b.fits = append(b.fits, gpuFit{spec: g, classif: ClassifyKernels(recs), records: recs})
		for sig, ks := range buildMapping(recs) {
			if _, ok := b.mapping[sig]; !ok {
				b.mapping[sig] = ks
			}
		}
	}
	// Family-level classifications, for sparse/unseen kernels.
	b.famFits = make([]gpuFit, len(b.fits))
	for i, f := range b.fits {
		famRecs := make([]dataset.KernelRecord, len(f.records))
		copy(famRecs, f.records)
		for j := range famRecs {
			famRecs[j].Kernel = FamilyOf(famRecs[j].Kernel)
		}
		b.famFits[i] = gpuFit{spec: f.spec, classif: ClassifyFamilies(f.records), records: famRecs}
	}
	return b, nil
}

// TrainGPUNames returns the names of the training GPUs.
func (b *IGKWBase) TrainGPUNames() []string {
	out := make([]string, len(b.fits))
	for i, f := range b.fits {
		out[i] = f.spec.Name
	}
	return out
}

// FitIGKW trains the inter-GPU model from the records of the training GPUs
// and resolves it for the target GPU. The target's measurements are never
// consulted; only its theoretical specification is.
func FitIGKW(ds *dataset.Dataset, trainGPUs []gpu.Spec, target gpu.Spec, trainBatch int) (*IGKWModel, error) {
	base, err := FitIGKWBase(ds, trainGPUs, trainBatch)
	if err != nil {
		return nil, err
	}
	return base.Resolve(target)
}

// Resolve instantiates the kernel-wise predictor for a (possibly
// hypothetical) target GPU from its theoretical bandwidth.
func (b *IGKWBase) Resolve(target gpu.Spec) (*IGKWModel, error) {
	fits := b.fits
	trainBatch := b.trainBatch

	m := &IGKWModel{
		Target:        target,
		TrainBatch:    trainBatch,
		Lines:         map[string]regression.Line{},
		DriverOf:      map[string]Driver{},
		Mapping:       map[string][]string{},
		FamilyLines:   map[string]regression.Line{},
		FamilyDriver:  map[string]Driver{},
		ClassFallback: map[Driver]regression.Line{},
	}
	m.TrainGPUs = b.TrainGPUNames()
	for sig, ks := range b.mapping {
		m.Mapping[sig] = ks
	}

	// Kernel union.
	kernelSet := map[string]bool{}
	for _, f := range fits {
		for k := range f.classif {
			kernelSet[k] = true
		}
	}

	for k := range kernelSet {
		driver := majorityDriver(fits, k)
		line, ok := bandwidthScaledLine(fits, k, driver, target)
		if !ok {
			continue // fall through to family/class fallback at prediction time
		}
		m.DriverOf[k] = driver
		m.Lines[k] = line
	}

	// Family-level bandwidth-scaled models, for sparse/unseen kernels.
	famFits := b.famFits
	famSet := map[string]bool{}
	for _, f := range famFits {
		for fam := range f.classif {
			famSet[fam] = true
		}
	}
	for fam := range famSet {
		driver := majorityDriver(famFits, fam)
		if line, ok := bandwidthScaledLine(famFits, fam, driver, target); ok {
			m.FamilyDriver[fam] = driver
			m.FamilyLines[fam] = line
		}
	}

	// Per-driver pooled fallbacks, themselves bandwidth-scaled.
	for _, d := range Drivers() {
		var bws, rates, intercepts []float64
		for _, f := range fits {
			var xs, ys []float64
			for _, r := range f.records {
				c, ok := f.classif[r.Kernel]
				if !ok || c.Driver != d {
					continue
				}
				xs = append(xs, driverX(r, d))
				ys = append(ys, float64(r.Seconds))
			}
			line, err := regression.Fit(xs, ys)
			if err != nil || line.Slope <= 0 {
				continue
			}
			bws = append(bws, f.spec.MemBWGBps)
			rates = append(rates, 1/line.Slope)
			intercepts = append(intercepts, line.Intercept)
		}
		if resolved, ok := resolveRate(bws, rates, intercepts, target.MemBWGBps); ok {
			m.ClassFallback[d] = resolved
		}
	}

	if len(m.Lines) == 0 {
		return nil, fmt.Errorf("core: IGKW model: no kernel observed with a usable slope on any training GPU")
	}
	m.plans.RegisterMetrics("core_igkw_plan_cache")
	return m, nil
}

// gpuFit bundles one training GPU's spec, kernel classification and raw
// records.
type gpuFit struct {
	spec    gpu.Spec
	classif map[string]Classification
	records []dataset.KernelRecord
}

// majorityDriver votes the driver class of a kernel across GPUs, weighting
// each vote by the winning fit's R².
func majorityDriver(fits []gpuFit, kernel string) Driver {
	score := map[Driver]float64{}
	for _, f := range fits {
		if c, ok := f.classif[kernel]; ok {
			w := c.R2[c.Driver]
			if w <= 0 {
				w = 1e-3
			}
			score[c.Driver] += w
		}
	}
	best := DriverOperation
	bestScore := math.Inf(-1)
	for _, d := range Drivers() {
		if s, ok := score[d]; ok && s > bestScore {
			bestScore = s
			best = d
		}
	}
	return best
}

// bandwidthScaledLine derives the kernel's time regression on the target GPU
// from its per-GPU slopes: rate = 1/slope is fitted against bandwidth and
// evaluated at the target's bandwidth.
func bandwidthScaledLine(fits []gpuFit, kernel string, driver Driver, target gpu.Spec) (regression.Line, bool) {
	var bws, rates, intercepts []float64
	for _, f := range fits {
		c, ok := f.classif[kernel]
		if !ok || c.Line.Slope <= 0 || c.N < MinKernelObservations {
			continue
		}
		// Re-fit on the voted driver if the per-GPU vote differed.
		line := c.Line
		if c.Driver != driver {
			var xs, ys []float64
			for _, r := range f.records {
				if r.Kernel == kernel {
					xs = append(xs, driverX(r, driver))
					ys = append(ys, float64(r.Seconds))
				}
			}
			refit, err := regression.Fit(xs, ys)
			if err != nil || refit.Slope <= 0 {
				continue
			}
			line = refit
		}
		bws = append(bws, f.spec.MemBWGBps)
		rates = append(rates, 1/line.Slope)
		intercepts = append(intercepts, line.Intercept)
	}
	return resolveRate(bws, rates, intercepts, target.MemBWGBps)
}

// resolveRate fits rate = a + b·bandwidth over the observations and returns
// the time regression (slope = 1/rate, intercept = mean intercept) at the
// target bandwidth. With a single observation the rate is scaled
// proportionally to bandwidth (rate/bw ratio), the through-origin special
// case.
func resolveRate(bws, rates, intercepts []float64, targetBW float64) (regression.Line, bool) {
	if len(bws) == 0 {
		return regression.Line{}, false
	}
	var rate float64
	if len(bws) == 1 {
		rate = rates[0] / bws[0] * targetBW
	} else {
		line, err := regression.Fit(bws, rates)
		if err == nil && line.Intercept < 0 {
			// A negative intercept would give zero or negative rates at low
			// bandwidths; a purely memory-bound kernel scales through the
			// origin, so refit that way.
			line, err = regression.FitOrigin(bws, rates)
		}
		if err != nil {
			// Identical bandwidths: average the rates.
			rate = regression.Mean(rates)
		} else {
			rate = line.Predict(targetBW)
		}
	}
	minRate := rates[0]
	for _, r := range rates {
		if r < minRate {
			minRate = r
		}
	}
	if rate < minRate*0.05 {
		// The linear extrapolation went non-physical (e.g. far below every
		// observed rate); clamp to a small fraction of the slowest observed
		// device rather than produce a negative rate.
		rate = minRate * 0.05
	}
	return regression.Line{
		Slope:     1 / rate,
		Intercept: regression.Mean(intercepts),
		N:         len(bws),
	}, true
}

// Name implements Predictor.
func (m *IGKWModel) Name() string { return "IGKW" }

// GPUName implements Predictor; it reports the *target* GPU.
func (m *IGKWModel) GPUName() string { return m.Target.Name }

// PredictKernel predicts one kernel invocation's duration on the target GPU.
func (m *IGKWModel) PredictKernel(name string, layerFLOPs units.FLOPs, layerInElems, layerOutElems int64) units.Seconds {
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
	if line, ok := m.Lines[name]; ok {
		return clampTime(units.Seconds(line.Predict(x(m.DriverOf[name]))))
	}
	if line, ok := m.FamilyLines[FamilyOf(name)]; ok {
		return clampTime(units.Seconds(line.Predict(x(m.FamilyDriver[FamilyOf(name)]))))
	}
	d := DriverOperation
	if layerFLOPs == 0 {
		d = DriverOutput
	}
	if line, ok := m.ClassFallback[d]; ok {
		return clampTime(units.Seconds(line.Predict(x(d))))
	}
	return minPrediction
}

// PredictNetwork implements Predictor for the target GPU. Like the KW model,
// queries are served from a cached compiled plan (see plan.go): repeated
// predictions run allocation-free, never mutate n, and are safe to issue
// concurrently, with results bit-identical to PredictNetworkUncached.
func (m *IGKWModel) PredictNetwork(n *dnn.Network, batch int) (units.Seconds, error) {
	tm := obs.StartTimer(metricIGKWPredict)
	defer tm.Stop()
	if batch <= 0 || batch > MaxBatch {
		return m.PredictNetworkUncached(n, batch)
	}
	key := planKey{name: n.Name, fp: networkFingerprint(n, false)}
	p, err := m.plans.GetOrCompute(key, func() (*Plan, error) {
		return m.compilePlan(n)
	})
	if err != nil {
		return m.PredictNetworkUncached(n, batch)
	}
	return p.Predict(batch), nil
}

// PredictSweep predicts the network at every batch size in batches through
// one pass over the compiled plan, bit-identical to per-batch
// PredictNetwork calls. See KWModel.PredictSweep for the contract.
func (m *IGKWModel) PredictSweep(n *dnn.Network, batches []int) ([]units.Seconds, error) {
	tm := obs.StartTimer(metricSweepPredict)
	defer tm.Stop()
	for _, b := range batches {
		if b <= 0 {
			return nil, fmt.Errorf("core: IGKW sweep of %q: batch size %d must be positive", n.Name, b)
		}
		if b > MaxBatch {
			return nil, errBatchTooLarge("IGKW", n.Name, b)
		}
	}
	observeSweep(len(batches))
	key := planKey{name: n.Name, fp: networkFingerprint(n, false)}
	p, err := m.plans.GetOrCompute(key, func() (*Plan, error) {
		return m.compilePlan(n)
	})
	if err != nil {
		return sweepUncached(n, batches, m.PredictNetworkUncached)
	}
	return p.PredictSweep(batches), nil
}

// compilePlan compiles the target GPU's plan for the network.
func (m *IGKWModel) compilePlan(n *dnn.Network) (*Plan, error) {
	return compilePlan(n, m.Target.Name, false, m.Mapping, m.mapBatches.get(m.Mapping), m.resolveKernel)
}

// PredictNetworkUncached is the reference prediction path (shape inference
// plus per-kernel lookups on every call); plans are tested against it.
func (m *IGKWModel) PredictNetworkUncached(n *dnn.Network, batch int) (units.Seconds, error) {
	if batch > MaxBatch {
		return 0, errBatchTooLarge("IGKW", n.Name, batch)
	}
	if err := n.Infer(batch); err != nil {
		return 0, err
	}
	var total units.Seconds
	for _, l := range n.Layers {
		ks := kernels.ForLayer(l)
		if names, ok := m.Mapping[l.Signature()]; ok && len(names) == len(ks) {
			for i := range ks {
				ks[i].Name = names[i]
			}
		}
		for _, k := range ks {
			total += m.PredictKernel(k.Name, units.FLOPs(k.LayerFLOPs), k.LayerInputElems, k.LayerOutputElems)
		}
	}
	return total, nil
}

// resolveKernel mirrors PredictKernel's fallback chain (kernel line → family
// line → class fallback → minimum floor) as a compile-time resolution. The
// zero line in the last case predicts 0 at every x, which clamps to exactly
// the minPrediction literal PredictKernel returns.
func (m *IGKWModel) resolveKernel(name string, flopsZero bool) (regression.Line, Driver) {
	if line, ok := m.Lines[name]; ok {
		return line, m.DriverOf[name]
	}
	if line, ok := m.FamilyLines[FamilyOf(name)]; ok {
		return line, m.FamilyDriver[FamilyOf(name)]
	}
	d := DriverOperation
	if flopsZero {
		d = DriverOutput
	}
	if line, ok := m.ClassFallback[d]; ok {
		return line, d
	}
	return regression.Line{}, d
}

// PredictRecords predicts from structural kernel records (durations ignored).
func (m *IGKWModel) PredictRecords(recs []dataset.KernelRecord) units.Seconds {
	var total units.Seconds
	for _, r := range recs {
		total += m.PredictKernel(r.Kernel, r.LayerFLOPs, r.LayerInputElems, r.LayerOutputElems)
	}
	return total
}
