package core

import (
	"fmt"
	"math"
	"slices"
	"sync"

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

// IGKWBase is the target-independent part of the inter-GPU model: for every
// kernel and kernel family, and for each driver's pooled class line, the
// R²-voted driver and each contributing training GPU's bandwidth, rate and
// intercept; plus the union mapping table. It keeps no training record, so
// Resolve does no per-record work: it evaluates each name's rate-versus-
// bandwidth fit at the target bandwidth. On the quick lab's four
// bandwidth-DSE training GPUs, on a 2-vCPU VM, FitIGKWBase takes ~38 ms and
// a Resolve ~40 µs (BenchmarkFitIGKWBase, BenchmarkIGKWResolve), so a
// bandwidth design-space sweep (case study 1) costs microseconds per point
// before its predictions.
type IGKWBase struct {
	trainGPUs  []string
	trainBatch int
	mapping    map[string][]string
	kernels    []rateEvidence // sorted by name
	families   []rateEvidence // sorted by name
	classes    []rateEvidence // in Drivers() order, usable drivers only
}

// rateEvidence is the target-independent input of one bandwidth-scaled
// line: the name's voted driver and, for each contributing training GPU in
// training order, its bandwidth, rate (1/slope of its line on that driver)
// and intercept. n counts the training observations behind the line.
type rateEvidence struct {
	name                   string
	driver                 Driver
	bws, rates, intercepts []float64
	n                      int
}

// add records one training GPU's line on the evidence's driver.
func (e *rateEvidence) add(bw float64, line regression.Line) {
	e.bws = append(e.bws, bw)
	e.rates = append(e.rates, 1/line.Slope)
	e.intercepts = append(e.intercepts, line.Intercept)
}

// gpuFit is one training GPU's share of a base fit: its records at the
// train batch, their kernel- and family-level classifications, its mapping
// table and its per-driver pooled lines (the KW class fallbacks). FitIGKWBase
// drops it once the base's evidence is extracted.
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

// fitGPU classifies one training GPU's records at the train batch.
func fitGPU(ds *dataset.Dataset, g gpu.Spec, trainBatch int) (gpuFit, error) {
	recs := trainRecords(ds, g.Name, trainBatch)
	if len(recs) == 0 {
		return gpuFit{}, errNoRecords("IGKW", g.Name)
	}
	kernels := recordIndex(recs, kernelName)
	families := recordIndex(recs, FamilyOf)
	f := gpuFit{
		recs:     recs,
		kernels:  classified{classifyIndexed(recs, kernels), kernels},
		families: classified{classifyIndexed(recs, families), families},
		mapping:  buildMapping(recs),
	}
	f.pooled = classFallbacks(f.kernels.classif, recs)
	return f, nil
}

// FitIGKWBase performs the training work shared by every target: it fits
// each training GPU on its own goroutine, then extracts the
// target-independent evidence of every kernel, family and driver class.
// With several GPUs lacking records at the train batch, the error names the
// first in argument order.
func FitIGKWBase(ds *dataset.Dataset, trainGPUs []gpu.Spec, trainBatch int) (*IGKWBase, error) {
	if len(trainGPUs) < 2 {
		return nil, fmt.Errorf("core: IGKW model needs at least 2 training GPUs, got %d", len(trainGPUs))
	}
	fits := make([]gpuFit, len(trainGPUs))
	errs := make([]error, len(trainGPUs))
	var wg sync.WaitGroup
	for i, g := range trainGPUs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fits[i], errs[i] = fitGPU(ds, g, trainBatch)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	b := &IGKWBase{trainGPUs: make([]string, len(trainGPUs)), trainBatch: trainBatch,
		mapping: fits[0].mapping}
	bws := make([]float64, len(trainGPUs))
	for i, g := range trainGPUs {
		b.trainGPUs[i] = g.Name
		bws[i] = g.MemBWGBps
		// First GPU wins in the mapping union.
		for sig, ks := range fits[i].mapping {
			if _, ok := b.mapping[sig]; !ok {
				b.mapping[sig] = ks
			}
		}
	}
	b.kernels = scaledEvidence(fits, bws, func(f *gpuFit) *classified { return &f.kernels })
	// Family-level evidence, for sparse/unseen kernels.
	b.families = scaledEvidence(fits, bws, func(f *gpuFit) *classified { return &f.families })
	// Per-driver pooled fallbacks, themselves bandwidth-scaled. A driver
	// without a usable pooled fit on a GPU has a zero-slope line there.
	for _, d := range Drivers() {
		e := rateEvidence{driver: d}
		for i := range fits {
			line := fits[i].pooled[d]
			if line.Slope <= 0 {
				continue
			}
			e.add(bws[i], line)
		}
		if len(e.bws) > 0 {
			b.classes = append(b.classes, e)
		}
	}
	return b, nil
}

// TrainGPUNames returns the names of the training GPUs.
func (b *IGKWBase) TrainGPUNames() []string { return slices.Clone(b.trainGPUs) }

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
// GPU fall through to the family and class tiers at prediction time. Every
// model resolved from one base shares the base's mapping table: a KWModel
// never changes after its constructor returns.
func (b *IGKWBase) Resolve(target gpu.Spec) (*KWModel, error) {
	if len(b.kernels) == 0 {
		return nil, fmt.Errorf("core: IGKW model: no kernel observed with a usable slope on any training GPU")
	}
	bw := target.MemBWGBps
	lines := resolveClassifs(b.kernels, bw)
	groups, groupOf := singletonGroups(lines)
	m := &KWModel{
		GPU:           target.Name,
		TrainGPUs:     b.TrainGPUNames(),
		TrainBatch:    b.trainBatch,
		Classif:       lines,
		Groups:        groups,
		GroupOf:       groupOf,
		Mapping:       b.mapping,
		Families:      resolveClassifs(b.families, bw),
		ClassFallback: make(map[Driver]regression.Line, len(b.classes)),
	}
	for _, e := range b.classes {
		m.ClassFallback[e.driver], _ = resolveRate(e.bws, e.rates, e.intercepts, bw)
	}
	m.initCaches()
	m.plans.RegisterMetrics("core_igkw_plan_cache")
	return m, nil
}

// resolveClassifs evaluates every name's evidence at the target bandwidth:
// the voted driver and the bandwidth-scaled line, with N the training
// observations behind it.
func resolveClassifs(evidence []rateEvidence, targetBW float64) map[string]Classification {
	out := make(map[string]Classification, len(evidence))
	for _, e := range evidence {
		line, _ := resolveRate(e.bws, e.rates, e.intercepts, targetBW)
		out[e.name] = Classification{Kernel: e.name, Driver: e.driver, Line: line, N: e.n}
	}
	return out
}

// scaledEvidence extracts the evidence of every name the training GPUs
// classify at one level (kernels or families), in sorted name order: the
// R²-voted driver, and each training GPU's line on it. Only per-GPU fits
// with a positive slope and at least MinKernelObservations contribute, so
// a resolved line has N ≥ MinKernelObservations and passes the KW model's
// family guard; a GPU whose own vote differed is refitted on the voted
// driver. Names without a usable slope on any training GPU are left out.
func scaledEvidence(fits []gpuFit, bws []float64, level func(*gpuFit) *classified) []rateEvidence {
	levels := make([]*classified, len(fits))
	seen := map[string]bool{}
	var names []string
	for i := range fits {
		levels[i] = level(&fits[i])
		for name := range levels[i].classif {
			if !seen[name] {
				seen[name] = true
				names = append(names, name)
			}
		}
	}
	slices.Sort(names)
	out := make([]rateEvidence, 0, len(names))
	for _, name := range names {
		e := rateEvidence{name: name, driver: majorityDriver(levels, name)}
		for i, l := range levels {
			c, ok := l.classif[name]
			if !ok || c.Line.Slope <= 0 || c.N < MinKernelObservations {
				continue
			}
			line := c.Line
			if c.Driver != e.driver {
				xs, ys := indexedXY(fits[i].recs, l.index[name], e.driver)
				refit, err := regression.Fit(xs, ys)
				if err != nil || refit.Slope <= 0 {
					continue
				}
				line = refit
			}
			e.add(bws[i], line)
			e.n += c.N
		}
		if len(e.bws) > 0 {
			out = append(out, e)
		}
	}
	return out
}

// majorityDriver votes the driver class of a name across GPUs, weighting
// each vote by the winning fit's R².
func majorityDriver(levels []*classified, name string) Driver {
	score := map[Driver]float64{}
	for _, l := range levels {
		if c, ok := l.classif[name]; ok {
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
