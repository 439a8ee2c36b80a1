package core

import (
	"fmt"
	"maps"
	"math"

	"repro/internal/dataset"
	"repro/internal/gpu"
	"repro/internal/regression"
)

// The Inter-GPU Kernel-Wise model of §5.5 predicts a GPU that is absent from
// the training set by re-deriving each kernel's regression slope from the
// target's *theoretical memory bandwidth*.
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
// target from rate(target bandwidth): a KWModel whose lines are the resolved
// rates, so it predicts through the same plan, sweep and fallback paths as a
// measured model. Regression intercepts (launch overheads) are carried over
// as the training-GPU average.

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
		b.famFits[i] = gpuFit{spec: f.spec, classif: ClassifyFamilies(f.records),
			records: familyRecords(f.records)}
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
func FitIGKW(ds *dataset.Dataset, trainGPUs []gpu.Spec, target gpu.Spec, trainBatch int) (*KWModel, error) {
	base, err := FitIGKWBase(ds, trainGPUs, trainBatch)
	if err != nil {
		return nil, err
	}
	return base.Resolve(target)
}

// Resolve instantiates the kernel-wise predictor for a (possibly
// hypothetical) target GPU from its theoretical bandwidth. Every kernel with
// a bandwidth-resolved line becomes a singleton group (indexed in sorted
// kernel order), every family with one a Families entry, and the per-driver
// pools the class fallbacks; kernels without a usable slope on any training
// GPU fall through to the family and class tiers at prediction time.
func (b *IGKWBase) Resolve(target gpu.Spec) (*KWModel, error) {
	lines := bandwidthScaledClassifs(b.fits, target)
	if len(lines) == 0 {
		return nil, fmt.Errorf("core: IGKW model: no kernel observed with a usable slope on any training GPU")
	}
	groups, groupOf := singletonGroups(lines)
	m := &KWModel{
		GPU:           target.Name,
		TrainGPUs:     b.TrainGPUNames(),
		TrainBatch:    b.trainBatch,
		Classif:       lines,
		Groups:        groups,
		GroupOf:       groupOf,
		Mapping:       maps.Clone(b.mapping),
		Families:      bandwidthScaledClassifs(b.famFits, target),
		ClassFallback: map[Driver]regression.Line{},
	}

	// Per-driver pooled fallbacks, themselves bandwidth-scaled.
	for _, d := range Drivers() {
		var bws, rates, intercepts []float64
		for _, f := range b.fits {
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
	m.initCaches()
	m.plans.RegisterMetrics("core_igkw_plan_cache")
	return m, nil
}

// bandwidthScaledClassifs resolves every kernel (or family) the per-GPU fits
// classify for the target: the R²-voted driver and the bandwidth-scaled line,
// with N the training observations behind it. Names without a usable slope
// on any training GPU are left out.
func bandwidthScaledClassifs(fits []gpuFit, target gpu.Spec) map[string]Classification {
	names := map[string]bool{}
	for _, f := range fits {
		for name := range f.classif {
			names[name] = true
		}
	}
	out := map[string]Classification{}
	for name := range names {
		driver := majorityDriver(fits, name)
		if line, n, ok := bandwidthScaledLine(fits, name, driver, target); ok {
			out[name] = Classification{Kernel: name, Driver: driver, Line: line, N: n}
		}
	}
	return out
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
// evaluated at the target's bandwidth. n counts the training observations
// behind the line; only per-GPU fits with at least MinKernelObservations
// contribute, so a resolved line has n ≥ MinKernelObservations and passes
// the KW model's family guard.
func bandwidthScaledLine(fits []gpuFit, kernel string, driver Driver, target gpu.Spec) (regression.Line, int, bool) {
	var bws, rates, intercepts []float64
	n := 0
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
		n += c.N
	}
	line, ok := resolveRate(bws, rates, intercepts, target.MemBWGBps)
	return line, n, ok
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
