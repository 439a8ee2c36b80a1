package dataset

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"

	"repro/internal/dnn"
	"repro/internal/gpu"
	"repro/internal/obs"
	"repro/internal/profiler"
	"repro/internal/sim"
	"repro/internal/units"
)

var (
	metricBuildSeconds = obs.Default().Histogram("dataset_build_seconds",
		"Wall-clock duration of one dataset.Build collection pass.", nil)
	metricBuilds = obs.Default().Counter("dataset_builds_total",
		"Dataset collection passes completed.")
	metricBuildRecords = obs.Default().Counter("dataset_records_total",
		"Records (network + layer + kernel) emitted by dataset collection.")
)

// BuildOptions configures dataset collection.
type BuildOptions struct {
	// E2EBatchSizes are the batch sizes at which end-to-end times are
	// recorded (Figure 3 uses "batch size 4 or higher"; training uses 512).
	E2EBatchSizes []int
	// DetailBatchSize is the batch size at which layer- and kernel-level
	// records are collected (the paper trains at BS=512, where GPUs are
	// fully utilized).
	DetailBatchSize int
	// Batches is the measured-batch count per point (paper: 30).
	Batches int
	// Warmup is the warm-up batch count (paper: 20).
	Warmup int
	// Training collects training-step measurements (forward + backward +
	// optimizer kernels) instead of inference.
	Training bool
	// SimConfig overrides the device model's seed and noise (zero =
	// defaults).
	SimConfig sim.Config
}

// DefaultBuildOptions returns the paper's collection protocol.
func DefaultBuildOptions() BuildOptions {
	return BuildOptions{
		E2EBatchSizes:   []int{4, 64, 512},
		DetailBatchSize: 512,
		Batches:         30,
		Warmup:          20,
	}
}

// BuildReport summarizes a collection run.
type BuildReport struct {
	// Profiled counts successful (network, GPU, batch) executions.
	Profiled int
	// OutOfMemory lists the runs dropped for exceeding device memory, as
	// "network@batch on GPU" strings.
	OutOfMemory []string
}

// Build collects the dataset: for every (network, GPU) pair it records
// end-to-end times at every E2E batch size and layer/kernel detail at the
// detail batch size. Each distinct batch size is collected once, in
// first-seen order (the E2E sizes, then the detail size if it is not among
// them), so a size listed twice adds no duplicate records. Out-of-memory
// runs are dropped and reported, mirroring the paper's cleaning step.
// Collection parallelizes across networks; the result is deterministic
// (per-run RNG seeds depend only on network, GPU and batch size) and
// ordered by (network index, GPU index).
func Build(nets []*dnn.Network, gpus []gpu.Spec, opt BuildOptions) (*Dataset, *BuildReport, error) {
	ds := &Dataset{}
	report, err := build(nets, gpus, opt, []*Dataset{ds}, func(int) int { return 0 })
	if err != nil {
		return nil, nil, err
	}
	return ds, report, nil
}

// BuildPerGPU is Build split by device: result i holds exactly the records
// of gpus[i], byte-identical to Build(...).FilterGPU(gpus[i].Name) but
// written straight into per-device slices instead of a combined dataset.
// The experiment lab caches datasets per GPU, so this is its collection
// entry point.
func BuildPerGPU(nets []*dnn.Network, gpus []gpu.Spec, opt BuildOptions) ([]*Dataset, *BuildReport, error) {
	parts := make([]*Dataset, len(gpus))
	for i := range parts {
		parts[i] = &Dataset{}
	}
	report, err := build(nets, gpus, opt, parts, func(device int) int { return device })
	if err != nil {
		return nil, nil, err
	}
	return parts, report, nil
}

// build runs the collection pass, then writes every record once: it
// counts each network's records, allocates each destination's slices at
// their exact size, and has the workers write each network's records into
// its own region. dest[destOf(d)] receives device d's records; every
// destination is filled network-outer, device-inner, and within one
// (network, device) region the network records are in batch order.
func build(nets []*dnn.Network, gpus []gpu.Spec, opt BuildOptions, dest []*Dataset, destOf func(device int) int) (*BuildReport, error) {
	if len(nets) == 0 || len(gpus) == 0 {
		return nil, errors.New("dataset: Build needs at least one network and one GPU")
	}
	if opt.Batches <= 0 {
		opt.Batches = 30
	}
	if opt.DetailBatchSize <= 0 {
		opt.DetailBatchSize = 512
	}
	// Each distinct batch size once, in first-seen order.
	batches := make([]int, 0, len(opt.E2EBatchSizes)+1)
	for _, b := range opt.E2EBatchSizes {
		if !slices.Contains(batches, b) {
			batches = append(batches, b)
		}
	}
	if !slices.Contains(batches, opt.DetailBatchSize) {
		batches = append(batches, opt.DetailBatchSize)
	}
	workers := min(runtime.GOMAXPROCS(0), len(nets))
	tm := obs.StartTimer(metricBuildSeconds)
	defer tm.Stop()

	devices := make([]*sim.Device, len(gpus))
	for i, g := range gpus {
		devices[i] = sim.New(g, opt.SimConfig)
	}
	results := make([]collected, len(nets))
	forEach(len(nets), workers, func() func(int) {
		// One profiler per worker, so its per-kernel scratch persists
		// across every network this worker collects.
		p := &profiler.Profiler{Warmup: opt.Warmup, Batches: opt.Batches, Training: opt.Training}
		return func(i int) {
			results[i] = collectNetwork(p, nets[i], devices, batches, opt.DetailBatchSize)
		}
	})

	report := &BuildReport{}
	for i := range results {
		if results[i].err != nil {
			return nil, fmt.Errorf("dataset: network %q: %w", nets[i].Name, results[i].err)
		}
		report.OutOfMemory = append(report.OutOfMemory, results[i].oom...)
		report.Profiled += len(results[i].runs)
	}
	sort.Strings(report.OutOfMemory)

	// Count each (network, device) region's records, then turn the counts
	// into start offsets, network-outer and device-inner, and size each
	// destination exactly.
	at := make([]regionStart, len(nets)*len(gpus))
	for i := range results {
		for _, r := range results[i].runs {
			c := &at[i*len(gpus)+r.device]
			c.network++
			if r.durations != nil {
				c.layer += results[i].detailLayers
				c.kernel += len(r.durations)
			}
		}
	}
	next := make([]regionStart, len(dest))
	for j, c := range at {
		n := &next[destOf(j%len(gpus))]
		at[j] = *n
		n.network += c.network
		n.layer += c.layer
		n.kernel += c.kernel
	}
	total := 0
	for i, d := range dest {
		n := next[i]
		d.Networks = exactly[NetworkRecord](n.network)
		d.Layers = exactly[LayerRecord](n.layer)
		d.Kernels = exactly[KernelRecord](n.kernel)
		total += n.network + n.layer + n.kernel
	}
	forEach(len(nets), workers, func() func(int) {
		return func(i int) {
			results[i].write(nets[i], gpus, dest, destOf, at[i*len(gpus):(i+1)*len(gpus)])
		}
	})
	metricBuildRecords.Add(int64(total))
	metricBuilds.Inc()
	return report, nil
}

// forEach runs work(i) for every i in [0, n) on the given number of
// workers and waits for them. newWorker runs once per worker and returns
// that worker's work function, so each worker can own its scratch.
func forEach(n, workers int, newWorker func() func(i int)) {
	// The channel is buffered to the full job count and filled before any
	// worker starts, so no worker can block on a send that never comes.
	jobs := make(chan int, n)
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work := newWorker()
			for i := range jobs {
				work(i)
			}
		}()
	}
	wg.Wait()
}

// exactly returns a slice of n records, nil for n == 0 (as an empty
// Dataset has).
func exactly[R any](n int) []R {
	if n == 0 {
		return nil
	}
	return make([]R, n)
}

// regionStart is the index of the first network, layer and kernel record
// of one (network, device) region in its destination.
type regionStart struct{ network, layer, kernel int }

// collected is one network's collection output, awaiting its records.
type collected struct {
	// runs are the successful (batch, device) executions, batch-outer and
	// device-inner, so each device's runs are in batch order.
	runs []run
	// detail is the detail batch size's Prepared, and detailLayers the
	// number of its layers that dispatched kernels (one layer record each).
	detail       *profiler.Prepared
	detailLayers int
	oom          []string
	err          error
}

// run is one successful (network, batch size, device) execution.
type run struct {
	device     int
	batch      int
	totalFLOPs units.FLOPs
	e2e        float64
	// durations are the per-launch batch-averaged kernel durations, in
	// launch order; only detail runs have them.
	durations []float64
}

// collectNetwork profiles one network on every device at each batch size.
// It works on a private clone so parallel workers never share mutable
// shape state. The clone is shape-inferred once, at the first batch size,
// and moved to each later one in place (Network.Rebatch), which fails
// exactly where a fresh inference would. The loop is batch-outer and
// device-inner: kernel enumeration runs once per batch size
// (Profiler.Prepare) and the prepared plan replays on each device, where
// the per-device work is just the timing simulation. Only the detail batch
// size is prepared with layer templates, and only its runs keep their
// per-launch durations; the records are written later, by write.
func collectNetwork(p *profiler.Profiler, src *dnn.Network, devices []*sim.Device, batches []int, detailBatch int) (res collected) {
	defer func() {
		if r := recover(); r != nil {
			res.err = fmt.Errorf("dataset: collecting %s: panic: %v", src.Name, r)
		}
	}()
	net := src.Clone()
	res.runs = make([]run, 0, len(batches)*len(devices))
	for bi, bs := range batches {
		reshape := net.Rebatch
		if bi == 0 {
			reshape = net.Infer
		}
		if err := reshape(bs); err != nil {
			res.err = err
			return res
		}
		prep, err := p.Prepare(net, bs == detailBatch)
		if err != nil {
			res.err = err
			return res
		}
		if bs == detailBatch {
			res.detail = prep
			for li := range prep.Layers() {
				if len(prep.LayerLaunches(li)) > 0 {
					res.detailLayers++
				}
			}
		}
		totalFLOPs := units.FLOPs(prep.Header().TotalFLOPs)
		for di, dev := range devices {
			p.Device = dev
			e2e, durations, err := p.Measure(prep)
			if errors.Is(err, profiler.ErrOutOfMemory) {
				res.oom = append(res.oom, fmt.Sprintf("%s@%d on %s", net.Name, bs, dev.GPU.Name))
				continue
			}
			if err != nil {
				res.err = err
				return res
			}
			res.runs = append(res.runs, run{device: di, batch: bs, totalFLOPs: totalFLOPs,
				e2e: e2e, durations: slices.Clone(durations)})
		}
	}
	return res
}

// write writes the network's records into its regions: device d's go to
// dest[destOf(d)] from at[d] on. Each run adds its network record; a detail
// run adds one layer record per layer that dispatched kernels, in layer
// order, and one kernel record per launch, grouped by layer and in launch
// order within a layer. A layer's time is the sum of its kernels'
// durations, added in launch order.
func (res *collected) write(net *dnn.Network, gpus []gpu.Spec, dest []*Dataset, destOf func(device int) int, at []regionStart) {
	for _, r := range res.runs {
		d, pos, gpuName := dest[destOf(r.device)], &at[r.device], gpus[r.device].Name
		d.Networks[pos.network] = NetworkRecord{
			Network:    net.Name,
			Family:     net.Family,
			Task:       string(net.Task),
			GPU:        gpuName,
			BatchSize:  r.batch,
			TotalFLOPs: r.totalFLOPs,
			E2ESeconds: units.Seconds(r.e2e),
		}
		pos.network++
		if r.durations == nil {
			continue
		}
		for li, l := range res.detail.Layers() {
			launches := res.detail.LayerLaunches(li)
			if len(launches) == 0 {
				continue
			}
			var seconds float64
			for _, i := range launches {
				k := res.detail.Launch(i)
				d.Kernels[pos.kernel] = KernelRecord{
					Network:          net.Name,
					GPU:              gpuName,
					BatchSize:        r.batch,
					LayerIndex:       l.Index,
					LayerKind:        string(l.Kind),
					LayerSignature:   l.Signature,
					Kernel:           k.Name,
					LayerFLOPs:       units.FLOPs(k.LayerFLOPs),
					LayerInputElems:  k.LayerInputElems,
					LayerOutputElems: k.LayerOutputElems,
					Seconds:          units.Seconds(r.durations[i]),
				}
				pos.kernel++
				seconds += r.durations[i]
			}
			d.Layers[pos.layer] = LayerRecord{
				Network:     net.Name,
				GPU:         gpuName,
				BatchSize:   r.batch,
				LayerIndex:  l.Index,
				Kind:        string(l.Kind),
				Signature:   l.Signature,
				FLOPs:       units.FLOPs(l.FLOPs),
				InputElems:  l.InputElems,
				OutputElems: l.OutputElems,
				Seconds:     units.Seconds(seconds),
			}
			pos.layer++
		}
	}
}
