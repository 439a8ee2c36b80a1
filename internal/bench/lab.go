// Package bench is the experiment harness: one generator per table and
// figure of the paper's evaluation (see DESIGN.md's per-experiment index).
// Each generator returns a typed result with the same rows/series the paper
// reports and a Render method producing a human-readable text table.
//
// A Lab owns the shared expensive state — the network zoo and the collected
// datasets — so several experiments reuse one collection pass. All results
// are deterministic for a given Lab configuration.
package bench

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"text/tabwriter"

	"repro/internal/dataset"
	"repro/internal/dnn"
	"repro/internal/gpu"
	"repro/internal/obs"
	"repro/internal/zoo"
)

// Observability handles for the experiment harness.
var (
	metricDatasetBuild = obs.Default().Histogram("bench_dataset_build_seconds",
		"Latency of one per-GPU dataset collection pass.", nil)
	metricDatasetBuilds = obs.Default().Counter("bench_dataset_builds_total",
		"Per-GPU dataset collection passes completed.")
)

// TrainBatch is the fully-utilizing batch size every model trains at (§5.2).
const TrainBatch = 512

// TestFraction is the held-out network fraction (§3: "randomly selected 15%").
const TestFraction = 0.15

// SplitSeed fixes the train/test partition across experiments.
const SplitSeed = 2023

// MainGPUs are the devices of the model-accuracy experiments (§5.4 reports
// KW errors on A40, A100, 1080 Ti, TITAN RTX and V100).
func MainGPUs() []gpu.Spec {
	return []gpu.Spec{gpu.A100, gpu.A40, gpu.GTX1080Ti, gpu.TitanRTX, gpu.V100}
}

// Lab bundles the zoo and cached datasets for the experiment generators.
type Lab struct {
	nets   []*dnn.Network
	byName map[string]*dnn.Network

	batches int // measured batches per point
	warmup  int

	mu    sync.Mutex
	cache map[string]*labBuild // per-GPU collection flights

	builds atomic.Int64 // completed collection passes, for tests/telemetry
}

// labBuild is one per-GPU collection flight. The entry is installed in the
// cache before the build starts, so concurrent requesters share a single
// collection pass — they wait on done instead of racing to build duplicates.
type labBuild struct {
	done chan struct{}
	ds   *dataset.Dataset
	err  error
}

// NewLab builds the full-fidelity lab: the complete 646-network zoo and the
// paper's 30-measured-batch protocol. Collection for all five main GPUs
// takes tens of seconds.
func NewLab() *Lab { return newLab(zoo.Full(), 30, 20) }

// NewQuickLab builds a reduced lab for tests: a diverse 1-in-6 sample of the
// zoo and fewer measured batches. Error magnitudes shift slightly but every
// qualitative result is preserved.
func NewQuickLab() *Lab {
	// Construct only the sampled networks: FullBuilders()[i]() builds exactly
	// zoo.Full()[i], so the subset is unchanged while five sixths of the zoo
	// is never materialized.
	builders := zoo.FullBuilders()
	sub := make([]*dnn.Network, 0, (len(builders)+5)/6)
	for i := 0; i < len(builders); i += 6 {
		sub = append(sub, builders[i]())
	}
	return newLab(sub, 8, 2)
}

func newLab(nets []*dnn.Network, batches, warmup int) *Lab {
	l := &Lab{
		nets:    nets,
		byName:  make(map[string]*dnn.Network, len(nets)),
		batches: batches,
		warmup:  warmup,
		cache:   map[string]*labBuild{},
	}
	for _, n := range nets {
		l.byName[n.Name] = n
	}
	return l
}

// Networks returns the lab's zoo.
func (l *Lab) Networks() []*dnn.Network { return l.nets }

// Network resolves a zoo network by name, falling back to the standard
// models for names outside the lab's sample.
func (l *Lab) Network(name string) (*dnn.Network, error) {
	if n, ok := l.byName[name]; ok {
		return n, nil
	}
	return zoo.ByName(name)
}

// Dataset returns (building and caching on first use) the detail dataset of
// the given GPUs: end-to-end records at batch sizes {4, 64, 512} and
// layer/kernel detail at the training batch size. All uncached GPUs are
// collected in ONE dataset.Build pass — the batch-outer collection loop then
// prepares each (network, batch size) once and replays it across every
// device, and the worker budget is a single flat pool instead of per-GPU
// goroutines each spawning GOMAXPROCS collection workers (formerly up to P²
// goroutines). Each GPU's collection still runs at most once across all
// concurrent callers. The merged result is ordered by the gpus argument, so
// concurrent use is fully deterministic. A single-GPU result shares its
// records with the cache rather than copying them: callers may append to or
// Merge into it, but must not write its records in place.
func (l *Lab) Dataset(gpus ...gpu.Spec) (*dataset.Dataset, error) {
	// Claim flights for uncached GPUs under the lock; build the claimed ones
	// together, then wait for every flight (ours or another caller's).
	l.mu.Lock()
	flights := make([]*labBuild, len(gpus))
	var ownFlights []*labBuild
	var ownGPUs []gpu.Spec
	for i, g := range gpus {
		b, ok := l.cache[g.Name]
		if !ok {
			b = &labBuild{done: make(chan struct{})}
			l.cache[g.Name] = b
			ownFlights = append(ownFlights, b)
			ownGPUs = append(ownGPUs, g)
		}
		flights[i] = b
	}
	l.mu.Unlock()

	if len(ownGPUs) > 0 {
		l.buildGPUs(ownGPUs, ownFlights)
	}

	nNet, nLay, nKer := 0, 0, 0
	for i := range flights {
		<-flights[i].done
		if flights[i].err != nil {
			return nil, flights[i].err
		}
		nNet += len(flights[i].ds.Networks)
		nLay += len(flights[i].ds.Layers)
		nKer += len(flights[i].ds.Kernels)
	}
	if len(flights) == 1 {
		// The cached build itself, in a fresh header: its slices are
		// capacity-clipped, so a caller's append or Merge reallocates
		// instead of writing into the cache.
		cached := *flights[0].ds
		return &cached, nil
	}
	out := &dataset.Dataset{}
	out.Grow(nNet, nLay, nKer)
	for i := range flights {
		out.Merge(flights[i].ds)
	}
	return out, nil
}

// buildGPUs runs one combined collection pass for the claimed GPUs and
// resolves their flights. Each GPU's records are written into its own part,
// byte-identical to what a standalone per-GPU Build would have produced
// (profiling is deterministic per (network, GPU, batch)).
func (l *Lab) buildGPUs(gpus []gpu.Spec, flights []*labBuild) {
	tm := obs.StartTimer(metricDatasetBuild)
	defer tm.Stop()
	names := make([]string, len(gpus))
	for i, g := range gpus {
		names[i] = g.Name
	}
	sp := obs.StartSpan("dataset-build " + strings.Join(names, "+"))
	sp.SetArg("networks", fmt.Sprint(len(l.nets)))
	defer sp.End()

	opt := dataset.DefaultBuildOptions()
	opt.Batches = l.batches
	opt.Warmup = l.warmup
	parts, _, err := dataset.BuildPerGPU(l.nets, gpus, opt)
	for i, g := range gpus {
		b := flights[i]
		if err != nil {
			b.err = fmt.Errorf("bench: collecting %s dataset: %w", g.Name, err)
		} else {
			p := parts[i]
			b.ds = &dataset.Dataset{
				Networks: slices.Clip(p.Networks),
				Layers:   slices.Clip(p.Layers),
				Kernels:  slices.Clip(p.Kernels),
			}
			l.builds.Add(1)
			metricDatasetBuilds.Inc()
		}
		close(b.done)
	}
}

// BuildCount reports how many per-GPU collection passes have completed — in
// tests, the proof that concurrent Dataset calls share builds instead of
// duplicating them.
func (l *Lab) BuildCount() int64 { return l.builds.Load() }

// Sweep collects an ad-hoc dataset: the named networks on the given GPUs at
// the given batch sizes (end-to-end detail at each batch size).
func (l *Lab) Sweep(names []string, gpus []gpu.Spec, batchSizes []int) (*dataset.Dataset, error) {
	nets := make([]*dnn.Network, 0, len(names))
	for _, name := range names {
		n, err := l.Network(name)
		if err != nil {
			return nil, err
		}
		nets = append(nets, n)
	}
	opt := dataset.DefaultBuildOptions()
	opt.Batches = l.batches
	opt.Warmup = l.warmup
	opt.E2EBatchSizes = batchSizes
	opt.DetailBatchSize = batchSizes[len(batchSizes)-1]
	ds, _, err := dataset.Build(nets, gpus, opt)
	if err != nil {
		return nil, fmt.Errorf("bench: sweep collection: %w", err)
	}
	return ds, nil
}

// Split returns the lab's canonical train/test partition of a dataset.
func (l *Lab) Split(ds *dataset.Dataset) (train, test *dataset.Dataset) {
	return ds.SplitByNetwork(TestFraction, SplitSeed)
}

// renderTable lays out rows with tabwriter; the first row is the header.
func renderTable(title string, rows [][]string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	for i, r := range rows {
		fmt.Fprintln(w, strings.Join(r, "\t"))
		if i == 0 {
			sep := make([]string, len(r))
			for j, c := range r {
				sep[j] = strings.Repeat("-", len(c))
			}
			fmt.Fprintln(w, strings.Join(sep, "\t"))
		}
	}
	w.Flush()
	return b.String()
}
