// Package dataset holds the measurement database the paper's models train
// on (§3 "Data management"): network-, layer- and kernel-level records with
// the structural information (shapes, FLOPs, layer↔kernel mapping) and the
// measured execution times, plus CSV persistence, cleaning, and train/test
// splitting. Collection (Build, BuildPerGPU) measures every run first and
// then writes each record once, straight into its GPU's exactly sized
// slices.
package dataset

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"repro/internal/units"
)

// NetworkRecord is one end-to-end measurement of a network.
type NetworkRecord struct {
	Network   string
	Family    string
	Task      string
	GPU       string
	BatchSize int
	// TotalFLOPs is the theoretical forward-pass FLOPs at this batch size.
	TotalFLOPs units.FLOPs
	// E2ESeconds is the measured end-to-end time of one batch.
	E2ESeconds units.Seconds
}

// LayerRecord is one layer-level measurement.
type LayerRecord struct {
	Network   string
	GPU       string
	BatchSize int
	// LayerIndex is the layer's position within the network.
	LayerIndex int
	Kind       string
	Signature  string
	// FLOPs, InputElems, OutputElems are the layer's structural metrics.
	FLOPs       units.FLOPs
	InputElems  int64
	OutputElems int64
	// Seconds is the measured layer execution time.
	Seconds units.Seconds
}

// KernelRecord is one kernel-level measurement, carrying the three
// layer-level driver candidates of observation O5.
type KernelRecord struct {
	Network   string
	GPU       string
	BatchSize int
	// LayerIndex links the kernel back to its layer (the profiler-derived
	// layer↔kernel mapping of Figure 2).
	LayerIndex     int
	LayerKind      string
	LayerSignature string
	// Kernel is the kernel implementation name.
	Kernel string
	// LayerFLOPs, LayerInputElems, LayerOutputElems are the candidate driver
	// variables the kernel-wise classifier regresses against.
	LayerFLOPs       units.FLOPs
	LayerInputElems  int64
	LayerOutputElems int64
	// Seconds is the measured kernel duration.
	Seconds units.Seconds
}

// Dataset is the in-memory measurement database.
type Dataset struct {
	Networks []NetworkRecord
	Layers   []LayerRecord
	Kernels  []KernelRecord
}

// Merge appends all records of o into d.
func (d *Dataset) Merge(o *Dataset) {
	d.Networks = append(d.Networks, o.Networks...)
	d.Layers = append(d.Layers, o.Layers...)
	d.Kernels = append(d.Kernels, o.Kernels...)
}

// Grow reserves capacity for at least the given number of additional
// network, layer and kernel records, so bulk Merge sequences with known
// totals avoid repeated append reallocation.
func (d *Dataset) Grow(networks, layers, kernels int) {
	d.Networks = slices.Grow(d.Networks, networks)
	d.Layers = slices.Grow(d.Layers, layers)
	d.Kernels = slices.Grow(d.Kernels, kernels)
}

// NetworkNames returns the distinct network names, sorted.
func (d *Dataset) NetworkNames() []string {
	set := map[string]bool{}
	for _, r := range d.Networks {
		set[r.Network] = true
	}
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// GPUNames returns the distinct GPU names, sorted.
func (d *Dataset) GPUNames() []string {
	set := map[string]bool{}
	for _, r := range d.Networks {
		set[r.GPU] = true
	}
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// KernelNames returns the distinct kernel names, sorted.
func (d *Dataset) KernelNames() []string {
	set := map[string]bool{}
	for _, r := range d.Kernels {
		set[r.Kernel] = true
	}
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// FilterGPU returns the subset of records measured on the given GPU. The
// output slices are sized exactly (one counting pass per record type), so
// splitting a large merged dataset never pays append-growth reallocation.
func (d *Dataset) FilterGPU(gpuName string) *Dataset {
	nNet, nLay, nKer := 0, 0, 0
	for i := range d.Networks {
		if d.Networks[i].GPU == gpuName {
			nNet++
		}
	}
	for i := range d.Layers {
		if d.Layers[i].GPU == gpuName {
			nLay++
		}
	}
	for i := range d.Kernels {
		if d.Kernels[i].GPU == gpuName {
			nKer++
		}
	}
	out := &Dataset{
		Networks: make([]NetworkRecord, 0, nNet),
		Layers:   make([]LayerRecord, 0, nLay),
		Kernels:  make([]KernelRecord, 0, nKer),
	}
	for _, r := range d.Networks {
		if r.GPU == gpuName {
			out.Networks = append(out.Networks, r)
		}
	}
	for _, r := range d.Layers {
		if r.GPU == gpuName {
			out.Layers = append(out.Layers, r)
		}
	}
	for _, r := range d.Kernels {
		if r.GPU == gpuName {
			out.Kernels = append(out.Kernels, r)
		}
	}
	return out
}

// FilterNetworks returns the subset of records whose network name is in keep.
func (d *Dataset) FilterNetworks(keep map[string]bool) *Dataset {
	return &d.partition(1, func(network string) int {
		if keep[network] {
			return 0
		}
		return -1
	})[0]
}

// partition distributes d's records among n parts by network name: side
// maps a name to the index of the part its records join, or to a negative
// value to drop them. Order is preserved within each part, and each part's
// slices are allocated at their exact final size (a counting pass, then a
// filling pass). Records arrive grouped by network, so side runs once per
// change of network name rather than once per record.
func (d *Dataset) partition(n int, side func(network string) int) []Dataset {
	nets := partitionRecords(d.Networks, n, side, func(r *NetworkRecord) string { return r.Network })
	lays := partitionRecords(d.Layers, n, side, func(r *LayerRecord) string { return r.Network })
	kers := partitionRecords(d.Kernels, n, side, func(r *KernelRecord) string { return r.Network })
	parts := make([]Dataset, n)
	for i := range parts {
		parts[i] = Dataset{Networks: nets[i], Layers: lays[i], Kernels: kers[i]}
	}
	return parts
}

// partitionRecords is partition for one record type: the records of each
// run of equal network names are copied to their side's slice in one block.
func partitionRecords[R any](recs []R, n int, side func(string) int, network func(*R) string) [][]R {
	// forRuns calls f with each maximal run [lo, hi) of records sharing a
	// network name and that name's side.
	forRuns := func(f func(lo, hi, s int)) {
		for lo := 0; lo < len(recs); {
			name := network(&recs[lo])
			hi := lo + 1
			for hi < len(recs) && network(&recs[hi]) == name {
				hi++
			}
			if s := side(name); s >= 0 {
				f(lo, hi, s)
			}
			lo = hi
		}
	}
	counts := make([]int, n)
	forRuns(func(lo, hi, s int) { counts[s] += hi - lo })
	out := make([][]R, n)
	for i, c := range counts {
		if c > 0 { // an empty part keeps nil slices, like an empty Dataset
			out[i] = make([]R, 0, c)
		}
	}
	forRuns(func(lo, hi, s int) { out[s] = append(out[s], recs[lo:hi]...) })
	return out
}

// Clean removes exact duplicate records, mirroring the paper's dataset
// cleaning ("removing the duplications", §3; fail-to-execute runs are already
// excluded at collection time). It returns the number of records dropped.
// Collection emits no duplicates, so Clean is for datasets read from disk
// (ReadDir), which may have been concatenated or edited by hand.
func (d *Dataset) Clean() int {
	before := len(d.Networks) + len(d.Layers) + len(d.Kernels)
	d.Networks = dedup(d.Networks)
	d.Layers = dedup(d.Layers)
	// Kernel records legitimately repeat (a layer can launch the same kernel
	// name once per algorithm stage, and different layers share kernels);
	// only *exact* duplicates, duration included, are dropped.
	d.Kernels = dedup(d.Kernels)
	return before - len(d.Networks) - len(d.Layers) - len(d.Kernels)
}

// dedup drops the exact repeats from recs in place, keeping each record's
// first occurrence, in order.
func dedup[R comparable](recs []R) []R {
	seen := make(map[R]bool, len(recs))
	out := recs[:0]
	for _, r := range recs {
		if !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	return out
}

// SplitByNetwork partitions the dataset into train/test by drawing testFrac
// of the *networks* (not individual rows) into the test set, so evaluation
// always predicts networks the models never saw — the paper's "predict new
// DNNs" setting. The draw is stratified by task, guaranteeing both the
// image-classification and the text-classification groups are represented in
// the test set. The split is deterministic in seed.
func (d *Dataset) SplitByNetwork(testFrac float64, seed int64) (train, test *Dataset) {
	byTask := map[string][]string{}
	taskOf := map[string]string{}
	for _, r := range d.Networks {
		if _, ok := taskOf[r.Network]; !ok {
			taskOf[r.Network] = r.Task
		}
	}
	for _, name := range d.NetworkNames() {
		t := taskOf[name]
		byTask[t] = append(byTask[t], name)
	}
	tasks := make([]string, 0, len(byTask))
	for t := range byTask {
		tasks = append(tasks, t)
	}
	sort.Strings(tasks)

	rnd := rand.New(rand.NewSource(seed))
	const trainSide, testSide = 0, 1
	sideOf := make(map[string]int, len(taskOf))
	for _, t := range tasks {
		names := byTask[t]
		rnd.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
		nTest := int(float64(len(names))*testFrac + 0.5)
		if nTest < 1 && len(names) > 1 {
			nTest = 1
		}
		for _, n := range names[:nTest] {
			sideOf[n] = testSide
		}
		for _, n := range names[nTest:] {
			sideOf[n] = trainSide
		}
	}
	// Layer and kernel records of a network with no network record have no
	// side and are dropped.
	parts := d.partition(2, func(network string) int {
		if s, ok := sideOf[network]; ok {
			return s
		}
		return -1
	})
	return &parts[trainSide], &parts[testSide]
}

// Summary describes the dataset sizes.
func (d *Dataset) Summary() string {
	return fmt.Sprintf("%d network records, %d layer records, %d kernel records (%d networks, %d GPUs, %d distinct kernels)",
		len(d.Networks), len(d.Layers), len(d.Kernels),
		len(d.NetworkNames()), len(d.GPUNames()), len(d.KernelNames()))
}
