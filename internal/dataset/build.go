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
	results, report, err := collect(nets, gpus, opt)
	if err != nil {
		return nil, nil, err
	}
	ds := mergeResults(results, -1)
	metricBuildRecords.Add(int64(len(ds.Networks) + len(ds.Layers) + len(ds.Kernels)))
	return ds, report, nil
}

// BuildPerGPU is Build split by device: result i holds exactly the records
// of gpus[i], byte-identical to Build(...).FilterGPU(gpus[i].Name) but
// assembled without materializing (and then rescanning) the combined
// dataset. The experiment lab caches datasets per GPU, so this is its
// collection entry point.
func BuildPerGPU(nets []*dnn.Network, gpus []gpu.Spec, opt BuildOptions) ([]*Dataset, *BuildReport, error) {
	results, report, err := collect(nets, gpus, opt)
	if err != nil {
		return nil, nil, err
	}
	parts := make([]*Dataset, len(gpus))
	total := 0
	for di := range gpus {
		parts[di] = mergeResults(results, di)
		total += len(parts[di].Networks) + len(parts[di].Layers) + len(parts[di].Kernels)
	}
	metricBuildRecords.Add(int64(total))
	return parts, report, nil
}

// collect runs the parallel collection pass and returns the per-network
// results (each holding one Dataset per device) plus the aggregate report.
func collect(nets []*dnn.Network, gpus []gpu.Spec, opt BuildOptions) ([]collectResult, *BuildReport, error) {
	if len(nets) == 0 || len(gpus) == 0 {
		return nil, nil, errors.New("dataset: Build needs at least one network and one GPU")
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

	// The channel is buffered to the full job count and filled before any
	// worker starts, so no code path (panic included) can leave a worker
	// blocked on a send that never comes.
	results := make([]collectResult, len(nets))
	jobs := make(chan int, len(nets))
	for i := range nets {
		jobs <- i
	}
	close(jobs)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One profiler per worker, so its per-kernel scratch persists
			// across every network this worker collects.
			p := &profiler.Profiler{Warmup: opt.Warmup, Batches: opt.Batches, Training: opt.Training}
			for i := range jobs {
				results[i] = collectNetwork(p, nets[i], devices, batches, opt.DetailBatchSize)
			}
		}()
	}
	wg.Wait()

	report := &BuildReport{}
	for i := range results {
		if results[i].err != nil {
			return nil, nil, fmt.Errorf("dataset: network %q: %w", nets[i].Name, results[i].err)
		}
		report.OutOfMemory = append(report.OutOfMemory, results[i].oom...)
		report.Profiled += results[i].profiled
	}
	sort.Strings(report.OutOfMemory)
	metricBuilds.Inc()
	return results, report, nil
}

// mergeResults concatenates the per-network collection outputs, presized
// exactly. device selects one device's records; -1 merges all devices in the
// legacy (network-outer, device-inner) Build order.
func mergeResults(results []collectResult, device int) *Dataset {
	nNet, nLay, nKer := 0, 0, 0
	for i := range results {
		for di := range results[i].ds {
			if device >= 0 && di != device {
				continue
			}
			d := &results[i].ds[di]
			nNet += len(d.Networks)
			nLay += len(d.Layers)
			nKer += len(d.Kernels)
		}
	}
	out := &Dataset{}
	out.Grow(nNet, nLay, nKer)
	for i := range results {
		for di := range results[i].ds {
			if device >= 0 && di != device {
				continue
			}
			out.Merge(&results[i].ds[di])
		}
	}
	return out
}

// collectResult is one network's collection output: one Dataset per device,
// so per-GPU assembly never rescans a combined dataset.
type collectResult struct {
	ds []Dataset
	// profiled counts the successful (network, GPU, batch) executions — the
	// quantity BuildReport.Profiled aggregates.
	profiled int
	oom      []string
	err      error
}

// collectNetwork profiles one network on every device at each batch size
// and appends every trace to its device's Dataset as soon as it is
// measured. It works on a private clone so parallel workers never share
// mutable shape state. The clone is shape-inferred once, at the first batch
// size, and moved to each later one in place (Network.Rebatch), which fails
// exactly where a fresh inference would. The loop is batch-outer and
// device-inner: kernel enumeration runs once per batch size
// (Profiler.Prepare) and the prepared plan replays on each device, where
// the per-device work is just the timing simulation. Each device's records
// therefore arrive in batch order. Only the detail batch size is prepared
// with layer templates; every other size yields an end-to-end-only trace,
// from which AddTrace keeps the network record alone.
func collectNetwork(p *profiler.Profiler, src *dnn.Network, devices []*sim.Device, batches []int, detailBatch int) (res collectResult) {
	defer func() {
		if r := recover(); r != nil {
			res.err = fmt.Errorf("dataset: collecting %s: panic: %v", src.Name, r)
		}
	}()
	net := src.Clone()
	res.ds = make([]Dataset, len(devices))
	for di := range res.ds {
		res.ds[di].Networks = make([]NetworkRecord, 0, len(batches))
	}
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
		for di, dev := range devices {
			p.Device = dev
			tr, err := p.ProfilePrepared(prep)
			if errors.Is(err, profiler.ErrOutOfMemory) {
				res.oom = append(res.oom, fmt.Sprintf("%s@%d on %s", net.Name, bs, dev.GPU.Name))
				continue
			}
			if err != nil {
				res.err = err
				return res
			}
			res.profiled++
			res.ds[di].AddTrace(tr)
		}
	}
	return res
}
