// Package profiler reproduces the role of the PyTorch Profiler in the
// paper's methodology (§3): it executes a network on a device model and
// produces a trace that links network-level information (layer shapes,
// FLOPs), framework-level information (layer execution spans) and
// hardware-level information (kernel launches and durations), creating the
// layer↔kernel mapping the kernel-wise model trains on (Figure 2).
//
// Timing follows the paper's measurement protocol: a warm-up period is
// skipped, the next Batches batches are measured, and every reported number
// is the average across measured batches.
//
// Profiling one (network, batch size) on several devices shares work: the
// device-independent half (kernel enumeration, footprint, layer templates)
// is computed once by Prepare from the network's inferred shapes and
// re-executed per device. A run has two pieces: Measure simulates it,
// resolving each distinct kernel's noiseless base time once, and returns
// the end-to-end time plus every launch's batch-averaged duration in the
// profiler's scratch; ProfilePrepared then assembles those into a Trace.
// Dataset collection calls Measure alone and writes its records straight
// from the Prepared and the durations, so no Trace is built for it.
package profiler

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"

	"repro/internal/dnn"
	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sim"
)

// Observability handles for trace generation. Dataset collection calls
// Profile thousands of times, so only aggregate metrics are recorded here;
// span-level structure comes from the per-GPU build spans in internal/bench.
var (
	metricProfiles = obs.Default().Counter("profiler_profiles_total",
		"Network executions profiled to completion (one per successful (network, batch, GPU) run).")
	metricProfileSeconds = obs.Default().Histogram("profiler_profile_seconds",
		"Latency of one profiled execution (warm-up plus measured batches).", nil)
	metricProfileOOMs = obs.Default().Counter("profiler_oom_total",
		"Profile runs rejected because the footprint exceeded device memory.")
	metricProfileFailures = obs.Default().Counter("profiler_failures_total",
		"Profile runs aborted by a non-OOM error (shape inference or FLOP counting failure).")
)

// ErrOutOfMemory marks runs whose footprint exceeds device memory; the
// dataset builder drops them, as the paper's cleaning step does.
var ErrOutOfMemory = errors.New("profiler: out of device memory")

// KernelEvent is one averaged kernel execution within a batch.
type KernelEvent struct {
	// Name is the kernel implementation name.
	Name string
	// LayerIndex is the index of the producing layer in the network.
	LayerIndex int
	// Start is the kernel's start offset within the batch timeline, seconds.
	Start float64
	// Duration is the measured (batch-averaged) kernel duration, seconds.
	Duration float64
	// Kernel carries the structural features of the invocation.
	Kernel kernels.Kernel
}

// LayerRecord aggregates the kernels of one layer.
type LayerRecord struct {
	// Index is the layer's position in the network.
	Index int
	// Name and Kind identify the layer; Signature is its structural key.
	Name      string
	Kind      dnn.Kind
	Signature string
	// FLOPs, InputElems and OutputElems are the layer's structural metrics.
	FLOPs       int64
	InputElems  int64
	OutputElems int64
	// Kernels lists the kernel events the layer dispatched.
	Kernels []KernelEvent
	// Duration is the layer execution time: the sum of its kernels'
	// durations ("we calculate layer execution times from the start and end
	// execution times for all the kernels launched for this layer", §3).
	Duration float64
}

// Trace is the full profile of one (network, batch size, GPU) execution.
type Trace struct {
	Network   string
	Family    string
	Task      dnn.Task
	GPU       string
	BatchSize int
	// Training marks a training-step trace (forward + backward + optimizer).
	Training bool
	// TotalFLOPs is the theoretical FLOPs of the whole forward pass.
	TotalFLOPs int64
	// Layers holds one record per network layer (including layers that
	// dispatch no kernels, with empty Kernels). An end-to-end-only trace
	// leaves it nil.
	Layers []LayerRecord
	// E2ETime is the measured (batch-averaged) end-to-end wall time of one
	// batch, seconds — what torch.cuda.Event timestamps would report.
	E2ETime float64
	// KernelSum is the sum of all averaged kernel durations, seconds (zero
	// in an end-to-end-only trace).
	KernelSum float64
}

// Profiler runs networks on a device model with the paper's warm-up and
// averaging protocol.
type Profiler struct {
	// Device is the device timing model to execute on.
	Device *sim.Device
	// Warmup is the number of discarded warm-up batches (paper: 20).
	Warmup int
	// Batches is the number of measured batches (paper: batches 21–50, 30).
	Batches int
	// Training profiles full training steps (forward + backward + optimizer
	// kernels) instead of inference — the paper's future-work extension.
	Training bool

	// base, noisy and sumDur are per-kernel scratch buffers reused across
	// Measure calls — the dominant allocations of a collection sweep; sumDur
	// holds the durations Measure returns. Their presence makes a Profiler
	// single-goroutine; the dataset builder already creates one per worker.
	base, noisy, sumDur, uniqBase []float64

	// rnd is the reusable noise RNG, re-seeded per run (seeding writes the
	// generator's whole state, so reuse is exact, not approximate).
	rnd *rand.Rand

	// ks and layerIdx hold the launch list Prepare enumerates, dedup maps
	// each launch to its distinct-kernel index, and first holds each
	// distinct kernel's first launch. All four are scratch reused across
	// Prepare calls: a Prepared keeps only the distinct kernels.
	ks       []kernels.Kernel
	layerIdx []int
	dedup    map[kernels.Kernel]int32
	first    []int32
}

// New returns a profiler for the device with the paper's protocol
// (20 warm-up batches, 30 measured batches).
func New(dev *sim.Device) *Profiler {
	return &Profiler{Device: dev, Warmup: 20, Batches: 30}
}

// seedFor derives a deterministic RNG seed per (network, GPU, batch, mode)
// so the whole dataset is reproducible: the FNV-1a digest of the bytes
// "%s|%s|%d|%t" formats the four to.
func seedFor(net, gpuName string, batch int, training bool) int64 {
	return int64(rng.NewFNV().Str(net).Str("|").Str(gpuName).Str("|").
		Int(batch).Str("|").Str(strconv.FormatBool(training)))
}

// Prepared is the device-independent half of profiling one (network, batch
// size) pair: FLOP counting, kernel enumeration, memory footprint and, for
// detail traces, layer templates. One Prepared can be executed on any
// number of devices via Measure or ProfilePrepared — the dataset builder
// prepares each batch size once and replays it across GPUs. Whether it
// profiles to a detail or an end-to-end-only run is fixed when it is
// prepared. It copies everything it needs out of the network and keeps
// none of its shape slices, so it stays valid after the network is
// re-inferred or rebatched to another batch size.
type Prepared struct {
	name       string
	family     string
	task       dnn.Task
	batch      int
	training   bool
	totalFLOPs int64
	footprint  int64

	// uniq holds the distinct kernel invocations of one execution, and
	// uniqIdx maps each launch, in launch order, to its entry. Networks
	// relaunch the same invocation heavily (residual blocks repeat shapes),
	// so per-device base-time resolution hashes each distinct kernel once
	// instead of once per launch, and the launch list itself is never kept.
	uniq    []kernels.Kernel
	uniqIdx []int32
	// layers holds per-layer templates with nil Kernels. byLayer lists the
	// launch indices grouped by producing layer, in layer order and in
	// launch order within a layer: layer i's launches are
	// byLayer[layerOff[i]:layerOff[i+1]]. A training step visits layers out
	// of order (backward after forward), so this is not launch order. Only
	// detail runs read them, so an end-to-end-only Prepared leaves all three
	// nil, and a nil layers is what marks it end-to-end-only.
	layers   []LayerRecord
	byLayer  []int32
	layerOff []int32
}

// Header returns the run's network-level trace fields (network, family,
// task, batch size, mode and total FLOPs), with no GPU, layers or times.
func (pr *Prepared) Header() Trace {
	return Trace{
		Network:    pr.name,
		Family:     pr.family,
		Task:       pr.task,
		BatchSize:  pr.batch,
		Training:   pr.training,
		TotalFLOPs: pr.totalFLOPs,
	}
}

// Layers returns a detail Prepared's layer templates, one per network
// layer, with nil Kernels and zero Duration; an end-to-end-only Prepared
// returns nil. The slice is shared: callers must not modify it.
func (pr *Prepared) Layers() []LayerRecord { return pr.layers }

// LayerLaunches returns the indices, in launch order, of the launches that
// layer i of a detail Prepared dispatched. The slice is shared: callers
// must not modify it.
func (pr *Prepared) LayerLaunches(i int) []int32 {
	return pr.byLayer[pr.layerOff[i]:pr.layerOff[i+1]]
}

// Launch returns the kernel invocation of launch i. The kernel is shared:
// callers must not modify it.
func (pr *Prepared) Launch(i int32) *kernels.Kernel { return &pr.uniq[pr.uniqIdx[i]] }

// Prepare computes the device-independent work of profiling the network at
// the batch size its shapes were last inferred at (Network.Infer or
// Network.Rebatch); it does not infer, so a caller walking several batch
// sizes infers once and rebatches in between. The returned Prepared
// snapshots the result. detail selects whether it carries the layer
// templates a detail trace needs; an end-to-end-only Prepared skips
// building them, Measure returns no per-launch durations for it, and
// ProfilePrepared returns its trace with nil Layers.
func (p *Profiler) Prepare(n *dnn.Network, detail bool) (*Prepared, error) {
	batch := n.Batch()
	if batch == 0 {
		metricProfileFailures.Inc()
		return nil, fmt.Errorf("profiler: network %q has no inferred shapes to prepare", n.Name)
	}
	totalFLOPs, err := n.TotalFLOPs()
	if err != nil {
		metricProfileFailures.Inc()
		return nil, err
	}
	prep := &Prepared{
		name:       n.Name,
		family:     n.Family,
		task:       n.Task,
		batch:      batch,
		training:   p.Training,
		totalFLOPs: totalFLOPs,
	}
	if p.Training {
		prep.footprint = sim.TrainingFootprint(n)
	} else {
		prep.footprint = sim.InferenceFootprint(n)
	}
	p.ks, p.layerIdx = kernels.AppendNetwork(p.ks[:0], p.layerIdx[:0], n, p.Training)

	prep.uniqIdx = make([]int32, len(p.ks))
	if p.dedup == nil {
		p.dedup = make(map[kernels.Kernel]int32, len(p.ks))
	} else {
		clear(p.dedup)
	}
	p.first = p.first[:0]
	for i := range p.ks {
		u, ok := p.dedup[p.ks[i]]
		if !ok {
			u = int32(len(p.first))
			p.dedup[p.ks[i]] = u
			p.first = append(p.first, int32(i))
		}
		prep.uniqIdx[i] = u
	}
	prep.uniq = make([]kernels.Kernel, len(p.first))
	for u, i := range p.first {
		prep.uniq[u] = p.ks[i]
	}
	if !detail {
		return prep, nil
	}

	// Group the launches by layer: count, prefix-sum, then place each launch
	// at its layer's cursor in launch order.
	prep.layerOff = make([]int32, len(n.Layers)+1)
	for _, li := range p.layerIdx {
		prep.layerOff[li+1]++
	}
	for i := range n.Layers {
		prep.layerOff[i+1] += prep.layerOff[i]
	}
	prep.byLayer = make([]int32, len(p.layerIdx))
	cursor := slices.Clone(prep.layerOff[:len(n.Layers)])
	for i, li := range p.layerIdx {
		prep.byLayer[cursor[li]] = int32(i)
		cursor[li]++
	}
	prep.layers = make([]LayerRecord, len(n.Layers))
	for i, l := range n.Layers {
		inElems := int64(0)
		for _, s := range l.InShapes {
			inElems += s.Numel()
		}
		prep.layers[i] = LayerRecord{
			Index:       i,
			Name:        l.Name,
			Kind:        l.Kind,
			Signature:   l.Signature(),
			FLOPs:       dnn.LayerFLOPs(l),
			InputElems:  inElems,
			OutputElems: l.OutShape.Numel(),
		}
	}
	return prep, nil
}

// Profile executes the network at the given batch size and returns its
// trace. The network is (re-)shape-inferred at that batch size. Runs whose
// memory footprint exceeds the device return ErrOutOfMemory.
func (p *Profiler) Profile(n *dnn.Network, batch int) (*Trace, error) {
	if err := n.Infer(batch); err != nil {
		metricProfileFailures.Inc()
		return nil, err
	}
	prep, err := p.Prepare(n, true)
	if err != nil {
		return nil, err
	}
	return p.ProfilePrepared(prep)
}

// ProfilePrepared executes a prepared (network, batch size) on the
// profiler's current device and returns its trace: Measure, then trace
// assembly. Runs whose memory footprint exceeds the device return
// ErrOutOfMemory. A Prepared with layer templates yields a detail trace; an
// end-to-end-only one yields a trace with nil Layers and no KernelSum.
func (p *Profiler) ProfilePrepared(prep *Prepared) (*Trace, error) {
	e2e, durations, err := p.Measure(prep)
	if err != nil {
		return nil, err
	}
	tr := prep.Header()
	tr.GPU = p.Device.GPU.Name
	tr.E2ETime = e2e
	if prep.layers == nil {
		return &tr, nil
	}

	// Start offsets and KernelSum accumulate in launch order.
	starts := make([]float64, len(durations))
	for i, d := range durations {
		starts[i] = tr.KernelSum
		tr.KernelSum += d
	}
	tr.Layers = slices.Clone(prep.layers)
	// One backing array holds every kernel event, each layer's events a
	// capacity-clipped window of it in launch order.
	backing := make([]KernelEvent, len(durations))
	for li := range tr.Layers {
		lr := &tr.Layers[li]
		lo, hi := prep.layerOff[li], prep.layerOff[li+1]
		lr.Kernels = backing[lo:hi:hi]
		for j, i := range prep.byLayer[lo:hi] {
			k := prep.Launch(i)
			lr.Kernels[j] = KernelEvent{
				Name:       k.Name,
				LayerIndex: li,
				Start:      starts[i],
				Duration:   durations[i],
				Kernel:     *k,
			}
			lr.Duration += durations[i]
		}
	}
	return &tr, nil
}

// Measure executes a prepared (network, batch size) on the profiler's
// current device and returns its batch-averaged end-to-end time. For a
// detail Prepared it also returns every launch's batch-averaged duration,
// in launch order, in profiler scratch that the next Measure overwrites; an
// end-to-end-only Prepared runs the identical simulation (same RNG stream,
// same end-to-end time) and returns nil durations. Runs whose memory
// footprint exceeds the device return ErrOutOfMemory.
func (p *Profiler) Measure(prep *Prepared) (e2e float64, durations []float64, err error) {
	tm := obs.StartTimer(metricProfileSeconds)
	defer tm.Stop()
	if !p.Device.FitsFootprint(prep.footprint) {
		metricProfileOOMs.Inc()
		return 0, nil, fmt.Errorf("%w: %s at batch %d on %s",
			ErrOutOfMemory, prep.name, prep.batch, p.Device.GPU.Name)
	}

	detail := prep.layers != nil
	launches := len(prep.uniqIdx)
	base := growScratch(&p.base, launches)
	// Resolve base times per distinct invocation, then fan out to launch
	// order with plain index loads.
	uniqBase := growScratch(&p.uniqBase, len(prep.uniq))
	for i := range prep.uniq {
		uniqBase[i] = p.Device.BaseKernelTime(prep.uniq[i])
	}
	for i, u := range prep.uniqIdx {
		base[i] = uniqBase[u]
	}

	sigma := p.Device.Config().NoiseSigma
	var rnd *rand.Rand
	if sigma > 0 {
		// With σ ≤ 0 the noise factor is exactly 1 and nothing is drawn,
		// so the RNG — whose seeding is itself costly — is only touched
		// when noise is on. Seed fully rewrites the source state, so the
		// reused generator's stream is identical to a fresh
		// rand.New(rand.NewSource(seed)).
		seed := seedFor(prep.name, p.Device.GPU.Name, prep.batch, prep.training)
		if p.rnd == nil {
			p.rnd = rand.New(rand.NewSource(seed))
		} else {
			p.rnd.Seed(seed)
		}
		rnd = p.rnd
		// Warm-up batches are executed for protocol fidelity: they advance
		// the noise stream one draw per kernel, exactly as a timed execution
		// would. Only NormFloat64 advances the RNG, so the lognormal
		// math.Exp on each discarded draw is skipped — measured output is
		// bit-identical.
		for b := 0; b < p.Warmup; b++ {
			for range launches {
				rnd.NormFloat64()
			}
		}
	}

	batches := p.Batches
	if batches <= 0 {
		batches = 1
	}
	noisy := growScratch(&p.noisy, launches)
	if detail {
		durations = growScratch(&p.sumDur, launches)
		for i := range durations {
			durations[i] = 0
		}
	}
	var wallSum float64
	for b := 0; b < batches; b++ {
		switch {
		case sigma > 0 && detail:
			for i := range noisy {
				noisy[i] = base[i] * math.Exp(rnd.NormFloat64()*sigma)
				durations[i] += noisy[i]
			}
		case sigma > 0:
			for i := range noisy {
				noisy[i] = base[i] * math.Exp(rnd.NormFloat64()*sigma)
			}
		case detail:
			// Noise-free devices still run the per-batch summation so the
			// averages below divide the same accumulated sums either way.
			for i := range noisy {
				noisy[i] = base[i]
				durations[i] += base[i]
			}
		default:
			copy(noisy, base)
		}
		wallSum += p.Device.WallTime(noisy)
	}
	for i := range durations {
		durations[i] /= float64(batches)
	}
	metricProfiles.Inc()
	return wallSum / float64(batches), durations, nil
}

// growScratch resizes a reusable buffer to n elements, reallocating only when
// capacity is exceeded. Contents are unspecified.
func growScratch(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}
