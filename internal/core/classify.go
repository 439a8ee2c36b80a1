package core

import (
	"slices"
	"sort"

	"repro/internal/dataset"
	"repro/internal/regression"
)

// Driver identifies which layer-level variable a kernel's execution time is
// linearly correlated with (observation O5). It is *learned from data* by
// ClassifyKernels — the classification the paper automates by "building
// linear regression for all three groups and comparing the R² value".
type Driver string

// The three driver classes of §4 O5.
const (
	DriverInput     Driver = "input"     // pre-processing kernels: x = N·C·H·W of the layer input
	DriverOperation Driver = "operation" // main kernels: x = layer FLOPs
	DriverOutput    Driver = "output"    // post-processing kernels: x = N·C·H·W of the layer output
)

// Drivers lists the classes in a stable order.
func Drivers() []Driver { return []Driver{DriverInput, DriverOperation, DriverOutput} }

// driverX extracts the candidate regressor for a kernel record.
func driverX(r dataset.KernelRecord, d Driver) float64 {
	switch d {
	case DriverInput:
		return float64(r.LayerInputElems)
	case DriverOperation:
		return float64(r.LayerFLOPs)
	default:
		return float64(r.LayerOutputElems)
	}
}

// Classification is the learned model of one kernel name.
type Classification struct {
	// Kernel is the kernel implementation name.
	Kernel string
	// Driver is the winning class.
	Driver Driver
	// Line is the regression on the winning driver variable.
	Line regression.Line
	// R2 reports the fit quality of each candidate driver (the quantities
	// Figure 8 contrasts).
	R2 map[Driver]float64
	// N is the number of training measurements.
	N int
}

// ClassifyKernels fits, for every kernel name in the records, one regression
// per candidate driver variable, and classifies the kernel into the class
// with the highest R² (§4 O5). Kernels whose winning fit is degenerate
// (e.g. observed only at a single problem size) are classified with a
// zero-slope line through their mean duration.
func ClassifyKernels(recs []dataset.KernelRecord) map[string]Classification {
	return classifyIndexed(recs, recordIndex(recs, every(len(recs))))
}

// every selects all n records: the indices 0..n-1.
func every(n int) []int {
	sel := make([]int, n)
	for i := range sel {
		sel[i] = i
	}
	return sel
}

// recordIndex groups the selected record indices (ascending) by kernel
// name, each list in record order. The per-kernel fits read records through
// these indices instead of copying every record (five string headers each)
// into per-kernel slices.
func recordIndex(recs []dataset.KernelRecord, sel []int) map[string][]int {
	out := map[string][]int{}
	for _, i := range sel {
		out[recs[i].Kernel] = append(out[recs[i].Kernel], i)
	}
	return out
}

// familyIndex derives the per-family record index lists from the
// per-kernel ones: each family's list is its kernels' lists merged back
// into record order. Kernels are visited in sorted name order, so the
// result never depends on map iteration order.
func familyIndex(byKernel map[string][]int) map[string][]int {
	out := map[string][]int{}
	var families []string
	for _, name := range sortedStringKeys(byKernel) {
		fam := FamilyOf(name)
		if _, ok := out[fam]; !ok {
			families = append(families, fam)
		}
		out[fam] = append(out[fam], byKernel[name]...)
	}
	for _, fam := range families {
		slices.Sort(out[fam])
	}
	return out
}

// classifyIndexed classifies each key's records, read through byKey's
// index lists (see ClassifyKernels).
func classifyIndexed(recs []dataset.KernelRecord, byKey map[string][]int) map[string]Classification {
	out := make(map[string]Classification, len(byKey))
	for name, idx := range byKey {
		c := Classification{Kernel: name, R2: map[Driver]float64{}, N: len(idx)}
		ys := make([]float64, len(idx))
		for i, ri := range idx {
			ys[i] = float64(recs[ri].Seconds)
		}
		best := -1.0
		xs := make([]float64, len(idx)) // refilled per driver; Fit keeps none of it
		for _, d := range Drivers() {
			for i, ri := range idx {
				xs[i] = driverX(recs[ri], d)
			}
			line, err := regression.Fit(xs, ys)
			if err != nil {
				continue
			}
			// A negative slope is physically meaningless for a work metric;
			// penalize it so another driver wins if one exists.
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
			// Degenerate everywhere: constant-time kernel at its mean.
			var mean float64
			for _, y := range ys {
				mean += y
			}
			mean /= float64(len(ys))
			c.Driver = DriverOutput
			c.Line = regression.Line{Intercept: mean, N: len(ys)}
		}
		out[name] = c
	}
	return out
}

// SortedKernels returns the classified kernel names in sorted order.
func SortedKernels(classif map[string]Classification) []string {
	out := make([]string, 0, len(classif))
	for k := range classif {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// MinKernelObservations is the minimum number of training measurements a
// kernel needs before it earns a dedicated regression; sparser kernels are
// predicted through their family's pooled model (the paper's models average
// ~2,920 points each — a kernel seen twice cannot support a line).
const MinKernelObservations = 8

// FamilyOf strips the size-variant suffixes from a kernel name, yielding the
// implementation family: "winograd_gemm_128x64" → "winograd_gemm",
// "depthwise_conv_k3_s2" → "depthwise_conv". Tokens are dropped from the
// first one containing a digit.
func FamilyOf(name string) string {
	end := len(name)
	for i := 0; i < len(name); i++ {
		if name[i] >= '0' && name[i] <= '9' {
			// Cut at the preceding underscore, if any.
			j := i
			for j > 0 && name[j-1] != '_' {
				j--
			}
			if j > 0 {
				end = j - 1
			}
			break
		}
	}
	return name[:end]
}

// Group is a cluster of kernels sharing one regression model (§5.4:
// "we combine kernels that demonstrate similar linear relationships and only
// build one model for these kernels" — 182 kernels reduce to 83 models on
// A100).
type Group struct {
	// Driver is the shared driver class of the group's kernels.
	Driver Driver
	// Kernels lists the member kernel names.
	Kernels []string
	// Line is the pooled regression over all members' measurements.
	Line regression.Line
	// RMSE is the pooled fit's root-mean-square residual, the per-kernel
	// uncertainty that prediction intervals aggregate.
	RMSE float64
}

// slopeMergeRatio bounds how far apart two kernels' slopes may be and still
// share a group model.
const slopeMergeRatio = 1.35

// groupKernels clusters classified kernels by (driver, slope proximity) and
// refits one pooled regression per group from the records, read through the
// per-kernel index. The group order and membership are deterministic.
func groupKernels(classif map[string]Classification, recs []dataset.KernelRecord, byKernel map[string][]int) ([]Group, map[string]int) {
	var groups []Group
	groupOf := make(map[string]int, len(classif))

	for _, d := range Drivers() {
		// Collect this driver's kernels, sorted by slope.
		type ks struct {
			name  string
			slope float64
		}
		var members []ks
		for name, c := range classif {
			if c.Driver == d && c.N >= MinKernelObservations {
				members = append(members, ks{name, c.Line.Slope})
			}
		}
		sort.Slice(members, func(i, j int) bool {
			if members[i].slope < members[j].slope {
				return true
			}
			if members[i].slope > members[j].slope {
				return false
			}
			return members[i].name < members[j].name
		})

		// Greedy slope clustering.
		for i := 0; i < len(members); {
			j := i + 1
			anchor := members[i].slope
			for j < len(members) {
				s := members[j].slope
				if anchor <= 0 || s <= 0 {
					// Non-positive slopes (constant-time kernels) group only
					// with themselves.
					break
				}
				if s > anchor*slopeMergeRatio {
					break
				}
				j++
			}
			g := Group{Driver: d}
			var xs, ys []float64
			for _, m := range members[i:j] {
				g.Kernels = append(g.Kernels, m.name)
				groupOf[m.name] = len(groups)
				for _, ri := range byKernel[m.name] {
					xs = append(xs, driverX(recs[ri], d))
					ys = append(ys, float64(recs[ri].Seconds))
				}
			}
			if line, stats, err := regression.FitDetail(xs, ys); err == nil {
				g.Line = line
				g.RMSE = stats.RMSE
			} else {
				// Degenerate pooled data: constant model at the mean.
				g.Line = regression.Line{Intercept: regression.Mean(ys), N: len(ys)}
			}
			groups = append(groups, g)
			i = j
		}
	}
	return groups, groupOf
}
