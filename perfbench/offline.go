package main

import (
	"bytes"
	"fmt"
	"maps"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fleetsim"
	"repro/internal/gpu"
	"repro/internal/loadgen"
	"repro/internal/obs"
	"repro/internal/profiler"
	"repro/internal/sim"
)

// maxKWErrorPct is the held-out error above which a fit counts as wrong.
const maxKWErrorPct = 10

// fitResult is one pass of the `dnnperf -quick train` pipeline on A100 and
// the time each layer took.
type fitResult struct {
	lab     *bench.Lab
	model   *core.KWModel
	errPct  float64
	records int

	zoo, build, split, fit, eval time.Duration
}

// collectFit runs the pipeline: fresh quick lab (the zoo sample) →
// Dataset(A100) → Split → FitKW → predict the held-out networks. A nil
// parent records no spans.
func collectFit(parent *obs.Span) (*fitResult, error) {
	res := &fitResult{}
	layer := func(name string, d *time.Duration, f func() error) error {
		sp := parent.Child(name)
		t := time.Now()
		err := f()
		*d = time.Since(t)
		sp.End()
		return err
	}
	var ds, train, test *dataset.Dataset
	_ = layer("zoo", &res.zoo, func() error {
		res.lab = bench.NewQuickLab()
		return nil
	})
	err := layer("dataset build", &res.build, func() error {
		var err error
		ds, err = res.lab.Dataset(gpu.A100)
		return err
	})
	if err != nil {
		return nil, err
	}
	res.records = len(ds.Networks) + len(ds.Layers) + len(ds.Kernels)
	_ = layer("dataset split", &res.split, func() error {
		train, test = res.lab.Split(ds)
		return nil
	})
	if err := layer("core FitKW", &res.fit, func() error {
		var err error
		res.model, err = core.FitKW(train, gpu.A100.Name, bench.TrainBatch)
		return err
	}); err != nil {
		return nil, err
	}
	if err := layer("core predict held-out", &res.eval, func() error {
		var err error
		res.errPct, err = heldOutErrorPct(res.lab, res.model, test)
		return err
	}); err != nil {
		return nil, err
	}
	return res, nil
}

// heldOutErrorPct is a model's mean relative error, in percent, on the
// test split's A100 networks at the training batch size.
func heldOutErrorPct(lab *bench.Lab, m core.Predictor, test *dataset.Dataset) (float64, error) {
	var evals []core.Eval
	for _, r := range test.Networks {
		if r.GPU != gpu.A100.Name || r.BatchSize != bench.TrainBatch {
			continue
		}
		net, err := lab.Network(r.Network)
		if err != nil {
			return 0, err
		}
		pred, err := m.PredictNetwork(net, bench.TrainBatch)
		if err != nil {
			return 0, err
		}
		evals = append(evals, core.Eval{Network: r.Network, Predicted: pred, Measured: r.E2ESeconds})
	}
	if len(evals) == 0 {
		return 0, fmt.Errorf("no held-out A100 networks at batch %d", bench.TrainBatch)
	}
	return 100 * core.MeanRelError(evals), nil
}

// saved serializes a model the way `dnnperf train -model` writes it.
func saved(m *core.KWModel) ([]byte, error) {
	var buf bytes.Buffer
	if err := core.Save(&buf, m); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// coldCollectFit times the first pipeline pass of a fresh process.
func coldCollectFit() (float64, error) {
	t := time.Now()
	if _, err := collectFit(nil); err != nil {
		return 0, err
	}
	return time.Since(t).Seconds(), nil
}

// runCollectFit is the collect-fit workload: the measure → train half of
// the paper, in-process. One op is one collectFit pass; every op must fit
// a model that serializes byte-identically to the first one, with a
// held-out error under maxKWErrorPct.
func runCollectFit(cfg config, r *run) error {
	setup, err := medianColdSetup(cfg.workload)
	if err != nil {
		return err
	}
	r.metrics["setup_s"] = setup

	// The first op in this process is a warm-up; its model is the one every
	// measured op must reproduce.
	r.attempted.Add(1)
	first, err := collectFit(nil)
	if err != nil {
		return err
	}
	if first.errPct >= maxKWErrorPct {
		r.fail("warm-up fit: held-out error %.2f%% ≥ %d%%", first.errPct, maxKWErrorPct)
	}
	want, err := saved(first.model)
	if err != nil {
		return err
	}
	r.metrics["kw_error_pct"] = first.errPct

	var all, plain, traced []float64
	var layers [5][]float64 // zoo, build, split, fit, eval in ms
	var allocs, allocBytes, gcs uint64
	var ops int
	start := time.Now()
	for time.Since(start) < cfg.window {
		// The traced run alternates plain and traced ops, so the cost of
		// recording spans shows as trace.overhead_pct.
		withSpans := cfg.traced && ops%2 == 1
		var parent *obs.Span
		if withSpans {
			parent = cfg.tracer.Start("collect-fit op", obs.TaskCat)
		}
		var m0, m1 runtime.MemStats
		if cfg.traced {
			runtime.ReadMemStats(&m0)
		}
		t := time.Now()
		res, err := collectFit(parent)
		d := ms(time.Since(t))
		parent.End()
		if cfg.traced {
			runtime.ReadMemStats(&m1)
		}
		r.attempted.Add(1)
		ops++
		if err != nil {
			r.fail("op %d: %v", ops, err)
			continue
		}
		if res.errPct >= maxKWErrorPct {
			r.fail("op %d: held-out error %.2f%% ≥ %d%%", ops, res.errPct, maxKWErrorPct)
			continue
		}
		got, err := saved(res.model)
		if err != nil || !bytes.Equal(got, want) {
			r.fail("op %d: fitted model does not serialize identically to the first fit (err %v)", ops, err)
			continue
		}
		all = append(all, d)
		if withSpans {
			traced = append(traced, d)
		} else {
			plain = append(plain, d)
		}
		if cfg.traced {
			allocs += m1.Mallocs - m0.Mallocs
			allocBytes += m1.TotalAlloc - m0.TotalAlloc
			gcs += uint64(m1.NumGC - m0.NumGC)
			for i, dur := range []time.Duration{res.zoo, res.build, res.split, res.fit, res.eval} {
				layers[i] = append(layers[i], ms(dur))
			}
			r.metrics["dataset.records"] = float64(res.records)
		}
	}
	elapsed := time.Since(start)
	if len(all) == 0 {
		return fmt.Errorf("no op completed in the %v window", cfg.window)
	}
	r.metrics["ops_per_s"] = float64(len(all)) / elapsed.Seconds()
	r.metrics["p50_ms"] = median(all)
	rss, err := vmHWMMB(os.Getpid())
	if err != nil {
		return err
	}
	r.metrics["peak_rss_mb"] = rss

	if !cfg.traced {
		return nil
	}
	n := float64(len(all))
	r.metrics["runtime.allocs_per_op"] = float64(allocs) / n
	r.metrics["runtime.alloc_mb_per_op"] = float64(allocBytes) / n / (1 << 20)
	r.metrics["runtime.gc_per_op"] = float64(gcs) / n
	for i, name := range []string{"zoo.build_ms", "dataset.build_ms", "dataset.split_ms", "core.fit_kw_ms", "core.eval_ms"} {
		r.metrics[name] = median(layers[i])
	}
	if len(plain) > 0 && len(traced) > 0 {
		r.metrics["trace.overhead_pct"] = 100 * (median(traced)/median(plain) - 1)
	}
	profMs, err := profileNetworks(cfg.tracer, first.lab)
	if err != nil {
		return err
	}
	r.metrics["profiler.profile_ms"] = profMs
	return writeTrace(cfg, nil)
}

// profileNetworks profiles every lab network on A100 at the training batch
// size with the paper's protocol and returns the median ms per network.
func profileNetworks(tr *obs.Tracer, lab *bench.Lab) (float64, error) {
	p := profiler.New(sim.NewDefault(gpu.A100))
	var times []float64
	for _, n := range lab.Networks() {
		sp := tr.Start("profiler Profile "+n.Name, obs.TaskCat)
		t := time.Now()
		_, err := p.Profile(n, bench.TrainBatch)
		times = append(times, ms(time.Since(t)))
		sp.End()
		if err != nil {
			return 0, fmt.Errorf("profiling %s: %w", n.Name, err)
		}
	}
	return median(times), nil
}

// The capacity question one capacity-plan op answers: for each arrival
// rate and dispatch policy, the smallest fleet whose simulated p99 meets
// capP99Target. The grid is fixed so every op does the same work; the
// rates and target leave some cells feasible and some not.
var (
	capFleetSizes = []int{2, 4, 8}
	capRates      = []float64{20, 40, 80}
	capPolicies   = []string{"jsq", "lpt", "search"}
)

const (
	capP99Target = 2.0 // seconds
	capRequests  = 2000
	capMaxBatch  = 8
	capPostProcS = 200e-6
)

// capacitySetup fits the fleet oracle on a fresh quick lab and compiles its
// step table: the IGKW base fitted on the four DSE GPUs, resolved for the
// 8-GPU cluster fleet. It returns the lab's held-out error of the oracle's
// A100 member and the step-table build time.
func capacitySetup(tr *obs.Tracer) (*fleetsim.StepTable, float64, time.Duration, error) {
	sp := tr.Start("capacity-plan setup", obs.TaskCat)
	defer sp.End()
	lab := bench.NewQuickLab()
	child := sp.Child("bench FleetOracle")
	models, nets, err := bench.FleetOracle(lab)
	child.End()
	if err != nil {
		return nil, 0, 0, err
	}
	child = sp.Child("fleetsim BuildStepTable")
	t := time.Now()
	st, err := fleetsim.BuildStepTable(models, nets, capMaxBatch)
	build := time.Since(t)
	child.End()
	if err != nil {
		return nil, 0, 0, err
	}
	ds, err := lab.Dataset(gpu.A100)
	if err != nil {
		return nil, 0, 0, err
	}
	_, test := lab.Split(ds)
	errPct, err := heldOutErrorPct(lab, models[0], test)
	if err != nil {
		return nil, 0, 0, err
	}
	return st, errPct, build, nil
}

// coldCapacityPlan times one capacity-plan set-up in a fresh process.
func coldCapacityPlan() (float64, error) {
	t := time.Now()
	if _, _, _, err := capacitySetup(nil); err != nil {
		return 0, err
	}
	return time.Since(t).Seconds(), nil
}

// capacityGrid is the op's scenario grid for a seed.
func capacityGrid(seed int64) []fleetsim.Scenario {
	base := fleetsim.Scenario{
		Arrival:   loadgen.Poisson,
		Requests:  capRequests,
		MaxBatch:  capMaxBatch,
		PostProcS: capPostProcS,
		Seed:      seed,
	}
	return fleetsim.Grid(base, capFleetSizes, capRates, capPolicies)
}

// capLayers is the per-layer time of one traced capacity-plan op.
type capLayers struct {
	trace, planLPT, planSearch, replay time.Duration
	events, batches, requests, allocs  int64
}

// sweepTraced answers the op cell by cell, timing each layer the way
// fleetsim.Scenario.Build and Run compose them: arrival schedule and trace
// (loadgen + fleetsim.BuildTrace), planned routing (fleetsim.PlanRoute over
// sched), then NewSim + Replay. The answer must equal fleetsim.Sweep's.
func sweepTraced(parent *obs.Span, st *fleetsim.StepTable, grid []fleetsim.Scenario) ([]fleetsim.ScenarioResult, capLayers, error) {
	var l capLayers
	out := make([]fleetsim.ScenarioResult, 0, len(grid))
	nTypes := len(st.GPUs())
	for _, sc := range grid {
		fleet := make([]int32, sc.FleetSize)
		for i := range fleet {
			fleet[i] = int32(i % nTypes)
		}
		sp := parent.Child("loadgen arrivals + trace " + sc.Name)
		t := time.Now()
		proc, err := loadgen.NewArrivals(sc.Arrival, loadgen.ArrivalsConfig{Rate: sc.RateRPS, Seed: sc.Seed})
		if err != nil {
			return nil, l, err
		}
		trc, err := fleetsim.BuildTrace(proc, len(st.Nets()), sc.Requests, sc.Seed+0x5eed)
		l.trace += time.Since(t)
		sp.End()
		if err != nil {
			return nil, l, err
		}
		router, pol, err := fleetsim.ParsePolicy(sc.Policy)
		if err != nil {
			return nil, l, err
		}
		simCfg := fleetsim.Config{Fleet: fleet, MaxBatch: sc.MaxBatch, PostProcS: sc.PostProcS, Router: router, Seed: sc.Seed}
		if pol != nil {
			sp = parent.Child("sched " + pol.Name() + " " + sc.Name)
			t = time.Now()
			simCfg.Planned, err = fleetsim.PlanRoute(st, fleet, trc, pol)
			if sc.Policy == "search" {
				l.planSearch += time.Since(t)
			} else {
				l.planLPT += time.Since(t)
			}
			sp.End()
			if err != nil {
				return nil, l, err
			}
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		sp = parent.Child("fleetsim replay " + sc.Name)
		t = time.Now()
		s, err := fleetsim.NewSim(st, simCfg, trc)
		if err != nil {
			return nil, l, err
		}
		res := s.Replay()
		l.replay += time.Since(t)
		sp.End()
		runtime.ReadMemStats(&m1)
		l.allocs += int64(m1.Mallocs - m0.Mallocs)
		l.events += res.Events
		l.batches += res.Batches
		l.requests += res.Requests
		out = append(out, fleetsim.ScenarioResult{Scenario: sc, Result: res})
	}
	return out, l, nil
}

// checkAnswer validates one op's results: every cell drained, and the
// capacity answer equal to want (when want is non-nil).
func checkAnswer(results []fleetsim.ScenarioResult, want map[string]int) (map[string]int, error) {
	for _, res := range results {
		if res.Result.Unfinished != 0 {
			return nil, fmt.Errorf("cell %s left %d requests unfinished", res.Scenario.Name, res.Result.Unfinished)
		}
	}
	got := fleetsim.MinFleetForP99(results, capP99Target)
	if want != nil && !maps.Equal(got, want) {
		return nil, fmt.Errorf("capacity answer %v differs from the first op's %v", got, want)
	}
	return got, nil
}

// runCapacityPlan is the capacity-plan workload: fleetsim replay, loadgen
// arrival generation and sched planning, in-process. One op answers one
// capacity question over a fixed grid with a one-worker fleetsim.Sweep.
func runCapacityPlan(cfg config, r *run) error {
	setup, err := medianColdSetup(cfg.workload)
	if err != nil {
		return err
	}
	r.metrics["setup_s"] = setup
	st, errPct, stBuild, err := capacitySetup(cfg.tracer)
	if err != nil {
		return err
	}
	r.metrics["kw_error_pct"] = errPct
	grid := capacityGrid(cfg.seed)

	// The warm-up op fixes the answer every measured op must repeat, and
	// must itself contain both feasible and infeasible cells.
	r.attempted.Add(1)
	first, err := fleetsim.Sweep(st, grid, 1)
	if err != nil {
		return err
	}
	want, err := checkAnswer(first, nil)
	if err != nil {
		return err
	}
	feasible := 0
	for _, v := range want {
		if v > 0 {
			feasible++
		}
	}
	if feasible == 0 || feasible == len(want) {
		r.fail("capacity answer %v has no mix of feasible and infeasible cells", want)
	}
	if !cfg.traced {
		fmt.Fprintf(os.Stderr, "perfbench: capacity answer %v\n", sortedAnswer(want))
	}

	var all, plain, traced []float64
	var layers []capLayers
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var ops int
	start := time.Now()
	for time.Since(start) < cfg.window {
		withSpans := cfg.traced && ops%2 == 1
		r.attempted.Add(1)
		ops++
		t := time.Now()
		var results []fleetsim.ScenarioResult
		if withSpans {
			parent := cfg.tracer.Start("capacity-plan op", obs.TaskCat)
			var l capLayers
			results, l, err = sweepTraced(parent, st, grid)
			parent.End()
			layers = append(layers, l)
		} else {
			results, err = fleetsim.Sweep(st, grid, 1)
		}
		d := ms(time.Since(t))
		if err == nil {
			_, err = checkAnswer(results, want)
		}
		if err != nil {
			r.fail("op %d: %v", ops, err)
			continue
		}
		all = append(all, d)
		if withSpans {
			traced = append(traced, d)
		} else {
			plain = append(plain, d)
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	if len(all) == 0 {
		return fmt.Errorf("no op completed in the %v window", cfg.window)
	}
	r.metrics["ops_per_s"] = float64(len(all)) / elapsed.Seconds()
	r.metrics["p50_ms"] = median(all)
	rss, err := vmHWMMB(os.Getpid())
	if err != nil {
		return err
	}
	r.metrics["peak_rss_mb"] = rss

	if !cfg.traced {
		return nil
	}
	n := float64(ops)
	r.metrics["runtime.allocs_per_op"] = float64(m1.Mallocs-m0.Mallocs) / n
	r.metrics["runtime.alloc_mb_per_op"] = float64(m1.TotalAlloc-m0.TotalAlloc) / n / (1 << 20)
	r.metrics["runtime.gc_per_op"] = float64(m1.NumGC-m0.NumGC) / n
	r.metrics["core.steptable_ms"] = ms(stBuild)
	if len(layers) > 0 {
		pick := func(f func(capLayers) float64) float64 {
			xs := make([]float64, len(layers))
			for i, l := range layers {
				xs[i] = f(l)
			}
			return median(xs)
		}
		r.metrics["loadgen.trace_ms"] = pick(func(l capLayers) float64 { return ms(l.trace) })
		r.metrics["sched.plan_ms_lpt"] = pick(func(l capLayers) float64 { return ms(l.planLPT) })
		r.metrics["sched.plan_ms_search"] = pick(func(l capLayers) float64 { return ms(l.planSearch) })
		r.metrics["fleetsim.replay_ms"] = pick(func(l capLayers) float64 { return ms(l.replay) })
		r.metrics["fleetsim.events"] = pick(func(l capLayers) float64 { return float64(l.events) })
		r.metrics["fleetsim.batches"] = pick(func(l capLayers) float64 { return float64(l.batches) })
		r.metrics["fleetsim.replay_allocs"] = pick(func(l capLayers) float64 { return float64(l.allocs) })
		r.metrics["fleetsim.events_per_s"] = pick(func(l capLayers) float64 { return float64(l.events) / l.replay.Seconds() })
		r.metrics["fleetsim.sim_requests_per_s"] = pick(func(l capLayers) float64 { return float64(l.requests) / l.replay.Seconds() })
	}
	if len(plain) > 0 && len(traced) > 0 {
		r.metrics["trace.overhead_pct"] = 100 * (median(traced)/median(plain) - 1)
	}
	return writeTrace(cfg, nil)
}

// sortedAnswer renders a capacity answer in key order.
func sortedAnswer(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = fmt.Sprintf("%s=%d", k, m[k])
	}
	return out
}
