package core

import (
	"sort"

	"repro/internal/dataset"
	"repro/internal/regression"
)

// Online learning for the kernel-wise model. The paper motivates training
// from a single batch size partly because it "makes our solutions more
// suitable for online learning (updating the model in the deployed
// environment in real-time)" (§5.2). ObserveRecords implements that claim
// with a strong guarantee: after any stream of updates the model is
// identical to one freshly fitted on the union of all observed records.
//
// The mechanism: every kernel keeps one OLS accumulator per candidate driver
// variable (the sufficient statistics of §4 O5's three regressions). New
// records fold into the accumulators in O(1); the classification, grouping
// and fallback structure are then rebuilt from the accumulators — cheap,
// since the data is already reduced to per-kernel statistics.
type onlineState struct {
	// kernelAcc[name][i] accumulates (driver_i, seconds) for Drivers()[i].
	kernelAcc map[string]*[3]regression.Accumulator
	// mapping accumulates layer-signature → kernel-list entries from
	// streamed records.
	mapping map[string][]string
}

// accumulate folds records into the per-kernel driver accumulators.
func (st *onlineState) accumulate(recs []dataset.KernelRecord) {
	for _, r := range recs {
		acc, ok := st.kernelAcc[r.Kernel]
		if !ok {
			acc = &[3]regression.Accumulator{}
			st.kernelAcc[r.Kernel] = acc
		}
		for i, d := range Drivers() {
			acc[i].Add(driverX(r, d), float64(r.Seconds))
		}
	}
}

// sortedStringKeys returns the map's keys in sorted order. Every loop in this
// package that folds floats or appends to an output slice while walking a
// string-keyed map iterates via this helper: Go randomizes map iteration
// order, and float accumulation is not associative, so ranging the map
// directly would make refitted coefficients differ bit-for-bit between runs
// (the detrange invariant in internal/analysis).
func sortedStringKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// initOnline seeds the accumulators (and the mapping table) from the
// fit-time records so later observations blend with the training data.
func (m *KWModel) initOnline(recs []dataset.KernelRecord) {
	st := &onlineState{
		kernelAcc: map[string]*[3]regression.Accumulator{},
		mapping:   map[string][]string{},
	}
	st.accumulate(recs)
	m.online = st
}

// classifyFromAccumulators reproduces ClassifyKernels from the sufficient
// statistics: best (non-negative-slope-preferred) R² wins.
func classifyFromAccumulators(name string, acc *[3]regression.Accumulator) Classification {
	c := Classification{Kernel: name, R2: map[Driver]float64{}, N: acc[0].N()}
	best := -1.0
	for i, d := range Drivers() {
		line, err := acc[i].Line()
		if err != nil {
			continue
		}
		r2 := line.R2
		if line.Slope < 0 {
			r2 -= 1
		}
		c.R2[d] = line.R2
		if r2 > best {
			best = r2
			c.Driver = d
			c.Line = line
		}
	}
	if c.Driver == "" {
		c.Driver = DriverOutput
		c.Line = regression.Line{Intercept: acc[0].MeanY(), N: acc[0].N()}
	}
	return c
}

// rebuildFromAccumulators reconstructs classification, groups and fallbacks
// from the online statistics — the same structure FitKW derives from raw
// records. Kernels the model knows from fit time but whose statistics are
// not in the accumulators (possible after deserialization, where only the
// fitted parameters survive) keep their existing models as frozen singleton
// groups, so updating is never destructive.
func (m *KWModel) rebuildFromAccumulators() {
	st := m.online

	// Frozen state: previously fitted kernels without online statistics.
	frozen := map[string]Group{}
	for _, name := range sortedStringKeys(m.GroupOf) {
		if _, ok := st.kernelAcc[name]; !ok {
			g := m.Groups[m.GroupOf[name]]
			frozen[name] = Group{Driver: g.Driver, Kernels: []string{name},
				Line: g.Line, RMSE: g.RMSE}
		}
	}

	if m.Classif == nil {
		m.Classif = map[string]Classification{}
	}
	for _, name := range sortedStringKeys(st.kernelAcc) {
		m.Classif[name] = classifyFromAccumulators(name, st.kernelAcc[name])
	}

	// Regroup accumulator-backed kernels by (driver, slope proximity)
	// exactly as GroupKernels does, then re-attach the frozen singletons in
	// sorted order (ranging the map would append them — and therefore assign
	// group indices — in a different order every run).
	m.Groups, m.GroupOf = groupFromAccumulators(m.Classif, st.kernelAcc)
	for _, name := range sortedStringKeys(frozen) {
		m.GroupOf[name] = len(m.Groups)
		m.Groups = append(m.Groups, frozen[name])
	}

	// Per-driver class fallbacks from merged accumulators (only when the
	// statistics exist and are non-degenerate; a deserialized model keeps its
	// fitted fallbacks). classPools/familyAccumulators merge in sorted kernel
	// order, keeping the pooled statistics bit-identical across runs.
	if len(st.kernelAcc) > 0 {
		if m.ClassFallback == nil {
			m.ClassFallback = map[Driver]regression.Line{}
		}
		pools := classPools(m.Classif, st.kernelAcc)
		for i, d := range Drivers() {
			if line, err := pools[i].Line(); err == nil {
				m.ClassFallback[d] = line
			}
		}

		// Family-level models from merged accumulators of same-family
		// kernels (frozen families are preserved unless re-observed).
		if m.Families == nil {
			m.Families = map[string]Classification{}
		}
		famAcc := familyAccumulators(st.kernelAcc)
		for _, fam := range sortedStringKeys(famAcc) {
			m.Families[fam] = classifyFromAccumulators(fam, famAcc[fam])
		}
	}

	// Extend the mapping table with streamed signatures.
	if m.Mapping == nil {
		m.Mapping = map[string][]string{}
	}
	for _, sig := range sortedStringKeys(st.mapping) {
		if _, ok := m.Mapping[sig]; !ok {
			m.Mapping[sig] = st.mapping[sig]
		}
	}
}

// groupFromAccumulators mirrors GroupKernels over accumulator statistics.
func groupFromAccumulators(classif map[string]Classification,
	kernelAcc map[string]*[3]regression.Accumulator) ([]Group, map[string]int) {

	var groups []Group
	groupOf := map[string]int{}
	for _, d := range Drivers() {
		var members []kernelSlope
		for _, name := range sortedStringKeys(classif) {
			c := classif[name]
			if _, backed := kernelAcc[name]; !backed {
				continue // frozen fit-time kernel with no online statistics
			}
			if c.Driver == d && c.N >= MinKernelObservations {
				members = append(members, kernelSlope{name, c.Line.Slope})
			}
		}
		sortMembers(members)
		for i := 0; i < len(members); {
			j := i + 1
			anchor := members[i].slope
			for j < len(members) {
				s := members[j].slope
				if anchor <= 0 || s <= 0 || s > anchor*slopeMergeRatio {
					break
				}
				j++
			}
			g := Group{Driver: d}
			var pooled regression.Accumulator
			for _, mem := range members[i:j] {
				g.Kernels = append(g.Kernels, mem.name)
				groupOf[mem.name] = len(groups)
				pooled.Merge(kernelAcc[mem.name][driverIndex(d)])
			}
			if line, err := pooled.Line(); err == nil {
				g.Line = line
				g.RMSE = pooled.RMSE()
			} else {
				g.Line = regression.Line{Intercept: pooled.MeanY(), N: pooled.N()}
			}
			groups = append(groups, g)
			i = j
		}
	}
	return groups, groupOf
}

// kernelSlope pairs a kernel with its classified slope for grouping.
type kernelSlope struct {
	name  string
	slope float64
}

// sortMembers orders by (slope, name) for deterministic grouping. The
// comparator orders on < and > only — an equality test on the float slopes
// would trip the floateq invariant for no gain.
func sortMembers(members []kernelSlope) {
	sort.Slice(members, func(i, j int) bool {
		if members[i].slope < members[j].slope {
			return true
		}
		if members[i].slope > members[j].slope {
			return false
		}
		return members[i].name < members[j].name
	})
}

// ObserveRecords folds new kernel measurements into the model in place and
// rebuilds the classification/grouping structure from the accumulated
// statistics, so the model always equals a fresh fit on everything observed.
// It returns the number of group models after the update and the number of
// kernels that gained a dedicated model through this batch.
func (m *KWModel) ObserveRecords(recs []dataset.KernelRecord) (groups, newKernels int) {
	if m.online == nil {
		m.initOnline(nil)
	}
	st := m.online

	before := map[string]bool{}
	for _, name := range sortedStringKeys(m.GroupOf) {
		before[name] = true
	}

	st.accumulate(recs)
	for sig, ks := range buildMapping(recs) {
		if _, ok := st.mapping[sig]; !ok {
			st.mapping[sig] = ks
		}
	}
	m.rebuildFromAccumulators()

	// The regression structure and the mapping table changed: every
	// compiled plan, cached layer term list and the mapping-batch set may
	// now be stale.
	m.plans.Clear()
	m.layerPlans.Clear()
	m.mapBatches.reset()

	for _, name := range sortedStringKeys(m.GroupOf) {
		if !before[name] {
			newKernels++
		}
	}
	return len(m.Groups), newKernels
}

// PendingKernels reports kernels observed online that do not yet have enough
// measurements for a dedicated model, with their observation counts.
func (m *KWModel) PendingKernels() map[string]int {
	out := map[string]int{}
	if m.online == nil {
		return out
	}
	for _, name := range sortedStringKeys(m.online.kernelAcc) {
		if acc := m.online.kernelAcc[name]; acc[0].N() < MinKernelObservations {
			if _, ok := m.GroupOf[name]; !ok {
				out[name] = acc[0].N()
			}
		}
	}
	return out
}
