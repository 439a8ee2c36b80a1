// Command dnnperf reproduces the paper's experiments and exposes the
// library's workflows from the command line.
//
// Usage:
//
//	dnnperf [flags] <command>
//
// Commands:
//
//	zoo       summarize the 646-network zoo
//	trace     print a profiler trace (the Figure 2 layer↔kernel view);
//	          with -o, also write it as Chrome trace-event JSON
//	collect   collect a dataset and write it as CSV files
//	train     fit the E2E/LW/KW models on one GPU and print summaries
//	predict   predict one network's time with the KW model
//	serve     run the HTTP prediction service (/predict, /predict/batch,
//	          /metrics, /metrics.json, /healthz, /readyz, /modelz,
//	          expvar, pprof)
//	fleet     run N serve replicas behind the consistent-hash sharding
//	          proxy (health-aware routing, admission control, /fleetz)
//	loadtest  boot a fleet, drive open-loop load through the proxy, and
//	          print a throughput/latency summary JSON
//	sched     schedule a cluster-scale task queue (default: synthetic
//	          10⁶ tasks × 8 GPUs; -cluster uses model-predicted times)
//	          and print a JSON summary with makespan, lower bound,
//	          optimality gap and tasks/sec
//	fleetsim  replay an arrival trace against a simulated GPU fleet with
//	          compiled-plan step times (-cluster; default: synthetic
//	          oracle) and print latency percentiles, utilization and
//	          queue depths; -sweep-fleet/-sweep-rate/-sweep-policy fan a
//	          capacity grid, -o writes the batch timeline as a Perfetto
//	          trace
//	table1, fig3…fig9, fig11…fig19, table2
//	          regenerate one table/figure of the paper
//	all       regenerate every table and figure
//
// Flags:
//
//	-quick      use the reduced lab (1-in-6 zoo sample, fewer batches)
//	-gpu NAME   GPU for single-GPU commands (default A100)
//	-network N  network name for trace/predict (default resnet50)
//	-batch N    batch size for trace/predict (default 512)
//	-out DIR    output directory for collect (default ./dataset)
//	-addr ADDR  listen address for serve (default localhost:8080)
//	-model FILE model file: train writes it, predict reads it, and serve
//	            serves it instead of fitting (- reads it from stdin)
//	-timing     report per-phase wall time from the observability spans
//	-o FILE     write a Chrome trace-event JSON of the run (Perfetto-loadable)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dnn"
	"repro/internal/gpu"
	"repro/internal/obs"
	"repro/internal/plot"
	"repro/internal/profiler"
	"repro/internal/sim"
	"repro/internal/zoo"
)

// profileTrace runs one network on the device substrate with the paper's
// measurement protocol.
func profileTrace(net *dnn.Network, batch int, g gpu.Spec) (*profiler.Trace, error) {
	return profiler.New(sim.NewDefault(g)).Profile(net, batch)
}

func main() {
	quick := flag.Bool("quick", false, "use the reduced lab (faster, noisier)")
	gpuName := flag.String("gpu", "A100", "GPU name for single-GPU commands")
	network := flag.String("network", "resnet50", "network name for trace/predict")
	batch := flag.Int("batch", 512, "batch size for trace/predict")
	out := flag.String("out", "dataset", "output directory for collect/export")
	modelPath := flag.String("model", "", "model file: written by train, read by predict, and served by serve instead of fitting (serve: - reads it from stdin)")
	addr := flag.String("addr", "localhost:8080", "listen address for serve")
	timing := flag.Bool("timing", false, "report per-phase wall time (observability spans)")
	traceOut := flag.String("o", "", "write a Chrome trace-event JSON of the run to this file")
	fleetTraceOut := flag.String("trace-o", "", "fleet/loadtest: write a merged Perfetto trace of the proxy and every replica to this file")
	replicas := flag.Int("replicas", 4, "replica count for fleet/loadtest")
	maxInflight := flag.Int("max-inflight", 256, "per-replica in-flight cap for fleet/loadtest admission control")
	rate := flag.Float64("rate", 200, "offered request rate (rps) for loadtest")
	duration := flag.Duration("duration", 10*time.Second, "loadtest run length including warm-up")
	warmup := flag.Duration("warmup", 2*time.Second, "loadtest warm-up window excluded from the measurements")
	arrival := flag.String("arrival", "poisson", "loadtest/fleetsim arrival schedule: poisson, bursty, diurnal or closed (fleetsim's closed loop needs -users)")
	seed := flag.Int64("seed", 1, "randomness seed for loadtest/sched")
	tasks := flag.Int("tasks", 1_000_000, "sched: task count of the scheduling instance")
	fleetSize := flag.Int("fleet-size", 8, "sched: GPU count of the synthetic fleet")
	cluster := flag.Bool("cluster", false, "sched/fleetsim: model-driven fleet instead of the synthetic instance")
	requests := flag.Int("requests", 100_000, "fleetsim: open-loop trace length in requests")
	maxBatch := flag.Int("max-batch", 8, "fleetsim: replica batch-size cap")
	policy := flag.String("policy", "jsq", "fleetsim: dispatch policy (jsq, rr, lpt, inorder, search)")
	users := flag.Int("users", 0, "fleetsim: closed-loop virtual user count (0 = open loop)")
	think := flag.Duration("think", 50*time.Millisecond, "fleetsim: closed-loop mean think time")
	horizon := flag.Duration("horizon", 60*time.Second, "fleetsim: closed-loop simulated horizon")
	postProc := flag.Duration("post-proc", 200*time.Microsecond, "fleetsim: per-request post-processing time")
	sweepFleet := flag.String("sweep-fleet", "", "fleetsim: comma-separated fleet sizes to sweep")
	sweepRate := flag.String("sweep-rate", "", "fleetsim: comma-separated arrival rates (rps) to sweep")
	sweepPolicy := flag.String("sweep-policy", "", "fleetsim: comma-separated policies to sweep")
	p99Target := flag.Duration("p99-target", 250*time.Millisecond, "fleetsim sweep: p99 target for the capacity answer")
	flag.Usage = usage
	flag.Parse()

	if flag.NArg() != 1 {
		usage()
		os.Exit(2)
	}
	cmd := flag.Arg(0)

	// -timing and -o both enable observation: spans feed the per-phase
	// report and the Chrome trace export.
	if *timing || *traceOut != "" {
		obs.SetEnabled(true)
		obs.SetTracer(obs.NewTracer())
	}

	g, err := gpu.ByName(*gpuName)
	if err != nil {
		fatal(err)
	}
	lab := bench.NewLab
	if *quick {
		lab = bench.NewQuickLab
	}

	switch cmd {
	case "zoo":
		runZoo()
	case "trace":
		runTrace(*network, *batch, g)
	case "collect":
		runCollect(lab(), g, *out)
	case "train":
		runTrain(lab(), g, *modelPath)
	case "predict":
		runPredict(lab(), g, *network, *batch, *modelPath)
	case "serve":
		if err := runServe(lab(), g, *addr, *modelPath); err != nil {
			fatal(err)
		}
	case "fleet":
		ff := fleetFlags{replicas: *replicas, maxInflight: *maxInflight, traceOut: *fleetTraceOut}
		if err := runFleet(*quick, g, *addr, ff); err != nil {
			fatal(err)
		}
	case "loadtest":
		ff := fleetFlags{
			replicas: *replicas, maxInflight: *maxInflight,
			rate: *rate, duration: *duration, warmup: *warmup,
			arrival: *arrival, seed: *seed, traceOut: *fleetTraceOut,
		}
		if err := runLoadtest(*quick, g, *network, ff); err != nil {
			fatal(err)
		}
	case "sched":
		if err := runSched(lab(), *tasks, *fleetSize, *seed, *cluster); err != nil {
			fatal(err)
		}
	case "fleetsim":
		ff := fleetsimFlags{
			fleetSize: *fleetSize, requests: *requests, maxBatch: *maxBatch,
			rate: *rate, arrival: *arrival, policy: *policy,
			users: *users, think: *think, horizon: *horizon, post: *postProc,
			seed: *seed, cluster: *cluster, quick: *quick,
			sweepFleet: *sweepFleet, sweepRate: *sweepRate, sweepPolicy: *sweepPolicy,
			p99Target: *p99Target, timeline: *traceOut != "",
		}
		if err := runFleetsim(ff); err != nil {
			fatal(err)
		}
	case "all":
		if err := runAll(os.Stdout, lab()); err != nil {
			fatal(err)
		}
	case "plots":
		runPlots(lab())
	case "export":
		sp := obs.StartPhase("export")
		err := bench.Export(lab(), *out)
		sp.End()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("figure data written to %s/\n", *out)
	default:
		i := slices.IndexFunc(experiments, func(e experiment) bool { return e.name == cmd })
		if i < 0 {
			fmt.Fprintf(os.Stderr, "dnnperf: unknown command %q\n\n", cmd)
			usage()
			os.Exit(2)
		}
		sp := obs.StartPhase(cmd)
		text, err := experiments[i].run(lab())
		sp.End()
		if err != nil {
			fatal(err)
		}
		fmt.Print(text)
	}

	if *timing {
		printTiming()
	}
	if *traceOut != "" {
		if err := writeChromeTrace(*traceOut); err != nil {
			fatal(err)
		}
		fmt.Printf("chrome trace written to %s (load it at https://ui.perfetto.dev or chrome://tracing)\n", *traceOut)
	}
}

// printTiming renders the per-phase wall-time report the three ad-hoc
// time.Now blocks used to approximate, now sourced from the span tracer so
// every subcommand reports consistently.
func printTiming() {
	tr := obs.CurrentTracer()
	if tr == nil {
		return
	}
	evs := tr.Events()
	var total, phases int
	fmt.Println("\ntiming (phases):")
	for _, ev := range evs {
		if ev.Cat != obs.PhaseCat {
			continue
		}
		phases++
		fmt.Printf("  %-28s %12v\n", ev.Name, ev.Dur.Round(10e3))
	}
	if phases == 0 {
		fmt.Println("  (no phases recorded)")
	}
	total = len(evs)
	fmt.Printf("  %d spans recorded in total\n", total)
}

// writeChromeTrace dumps the tracer's spans as Chrome trace-event JSON.
func writeChromeTrace(path string) error {
	tr := obs.CurrentTracer()
	if tr == nil {
		return fmt.Errorf("dnnperf: no tracer active for -o")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// experiment is one table or figure of the paper: its command name and
// its generator, which returns the rendered text.
type experiment struct {
	name string
	run  func(*bench.Lab) (string, error)
}

// experiments lists every table and figure, on the canonical GPUs, in paper
// order: `dnnperf <name>` runs one, `all` runs them in order, and usage
// lists their names.
var experiments = []experiment{
	{"table1", func(*bench.Lab) (string, error) { return bench.Table1().Render(), nil }},
	{"fig3", func(l *bench.Lab) (string, error) { return render(bench.Figure3(l, gpu.A100)) }},
	{"fig4", func(l *bench.Lab) (string, error) { return render(bench.Figure4(l, gpu.A100)) }},
	{"fig5", func(l *bench.Lab) (string, error) { return render(bench.Figure5(l, gpu.A100)) }},
	{"fig6", func(l *bench.Lab) (string, error) { return render(bench.Figure6(l, gpu.A100)) }},
	{"fig7", func(l *bench.Lab) (string, error) { return render(bench.Figure7(l, gpu.A100)) }},
	{"fig8", func(l *bench.Lab) (string, error) { return render(bench.Figure8(l, gpu.A100)) }},
	{"fig9", func(l *bench.Lab) (string, error) { return render(bench.Figure9(l)) }},
	{"fig11", func(l *bench.Lab) (string, error) { return render(bench.Figure11(l, gpu.A100)) }},
	{"fig12", func(l *bench.Lab) (string, error) { return render(bench.Figure12(l, gpu.A100)) }},
	{"fig13", func(l *bench.Lab) (string, error) { return render(bench.Figure13(l, gpu.A100)) }},
	{"table2", func(l *bench.Lab) (string, error) { return render(table2(l)) }},
	{"fig14", func(l *bench.Lab) (string, error) { return render(bench.Figure14(l)) }},
	{"fig15", func(l *bench.Lab) (string, error) { return render(bench.Figure15(l)) }},
	{"fig16", func(l *bench.Lab) (string, error) { return render(bench.Figure16(l)) }},
	{"fig17", func(l *bench.Lab) (string, error) { return render(bench.Figure17(l)) }},
	{"fig18", func(l *bench.Lab) (string, error) { return render(bench.Figure18(l)) }},
	{"fig19", func(l *bench.Lab) (string, error) { return render(bench.Figure19(l)) }},
	{"ablation", func(l *bench.Lab) (string, error) { return render(bench.Ablation(l, gpu.A100)) }},
	{"training", func(l *bench.Lab) (string, error) { return render(bench.TrainingExtension(l, gpu.A100)) }},
	{"mig", func(l *bench.Lab) (string, error) { return render(bench.MIGExtension(l)) }},
	{"smallbatch", func(l *bench.Lab) (string, error) { return render(bench.SmallBatch(l, gpu.A100)) }},
	{"uncertainty", func(l *bench.Lab) (string, error) { return render(bench.Uncertainty(l, gpu.A100)) }},
	{"robustness", func(l *bench.Lab) (string, error) {
		return render(bench.Robustness(l, gpu.A100, []int64{0, 1, 2, 3, 4}))
	}},
	{"online", func(l *bench.Lab) (string, error) { return render(bench.OnlineLearning(l, gpu.A100)) }},
}

// render is an experiment's text: the result's rendering, or the error.
func render(r interface{ Render() string }, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return r.Render(), nil
}

// table2 is bench.Table2 with its wall-clock fit+predict times, which
// differ from run to run, reported on stderr instead of in the table.
func table2(l *bench.Lab) (*bench.Table2Result, error) {
	r, err := bench.Table2(l)
	if err != nil {
		return nil, err
	}
	for _, row := range r.Rows {
		fmt.Fprintf(os.Stderr, "table2: KW fit + predict at batch %d took %.2f s\n", row.BatchSize, row.KWSeconds)
	}
	return r, nil
}

// runAll writes every experiment to w in paper order, each followed by a
// blank line, then a closing count.
func runAll(w io.Writer, l *bench.Lab) error {
	all := obs.StartPhase("all")
	defer all.End()
	for _, e := range experiments {
		sp := obs.StartPhase(e.name)
		text, err := e.run(l)
		sp.End()
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		fmt.Fprintln(w, text)
	}
	fmt.Fprintf(w, "all %d experiments regenerated\n", len(experiments))
	return nil
}

// runPlots renders the data-rich figures as terminal charts.
func runPlots(l *bench.Lab) {
	sp := obs.StartPhase("plots")
	defer sp.End()
	f3, err := bench.Figure3(l, gpu.A100)
	if err != nil {
		fatal(err)
	}
	var xs, ys []float64
	for _, p := range f3.Points {
		xs = append(xs, p.X)
		ys = append(ys, p.Y)
	}
	chart, err := plot.Scatter("Figure 3: execution time vs FLOPs (A100, all networks, BS ≥ 4)",
		"GFLOPs", "exec ms", xs, ys, 72, 20)
	if err != nil {
		fatal(err)
	}
	fmt.Println(chart)

	f13, err := bench.Figure13(l, gpu.A100)
	if err != nil {
		fatal(err)
	}
	ratios := core.SortedRatios(f13.Curve.Evals)
	chart, err = plot.SCurve(fmt.Sprintf("Figure 13: KW predictions on A100 (avg error %.3f)", f13.Curve.MeanError),
		ratios, 72, 16)
	if err != nil {
		fatal(err)
	}
	fmt.Println(chart)

	f15, err := bench.Figure15(l)
	if err != nil {
		fatal(err)
	}
	xs, ys = nil, nil
	for _, p := range f15.Points {
		xs = append(xs, p.BandwidthGBps)
		ys = append(ys, p.PredictedMs)
	}
	chart, err = plot.Curve("Figure 15: ResNet-50 on TITAN RTX with modified bandwidth (¦ = native 672 GB/s)",
		"bandwidth GB/s", "predicted ms", xs, ys, f15.NativeGBps, 72, 16)
	if err != nil {
		fatal(err)
	}
	fmt.Println(chart)
}

func runZoo() {
	nets := zoo.Full()
	families := map[string]int{}
	for _, n := range nets {
		families[n.Family]++
	}
	names := make([]string, 0, len(families))
	for f := range families {
		names = append(names, f)
	}
	sort.Strings(names)
	fmt.Printf("%d networks in %d families:\n", len(nets), len(families))
	for _, f := range names {
		fmt.Printf("  %-14s %d\n", f, families[f])
	}
}

func runTrace(network string, batch int, g gpu.Spec) {
	sp := obs.StartPhase("profile " + network)
	net, err := zoo.ByName(network)
	if err != nil {
		fatal(err)
	}
	tr, err := profileTrace(net, batch, g)
	sp.End()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("trace of %s (batch %d) on %s — E2E %.3f ms, kernel sum %.3f ms\n",
		tr.Network, tr.BatchSize, tr.GPU, tr.E2ETime*1e3, tr.KernelSum*1e3)
	fmt.Printf("%-4s %-28s %-14s %-34s %10s\n", "idx", "layer", "kind", "kernel", "time (µs)")
	for _, l := range tr.Layers {
		for i, ev := range l.Kernels {
			layerCol := ""
			if i == 0 {
				layerCol = l.Name
			}
			fmt.Printf("%-4d %-28s %-14s %-34s %10.2f\n",
				l.Index, layerCol, l.Kind, ev.Name, ev.Duration*1e6)
		}
	}
	// With -o active, replay the layer↔kernel timeline onto the tracer so
	// the exported Chrome trace shows the Figure 2 view on two tracks.
	addProfilerTimeline(tr)
}

func runCollect(l *bench.Lab, g gpu.Spec, out string) {
	sp := obs.StartPhase("collect " + g.Name)
	ds, err := l.Dataset(g)
	if err != nil {
		fatal(err)
	}
	if err := ds.WriteDir(out); err != nil {
		fatal(err)
	}
	sp.End()
	fmt.Printf("collected %s\nwritten to %s/{%s,%s,%s}\n", ds.Summary(), out,
		dataset.NetworksCSV, dataset.LayersCSV, dataset.KernelsCSV)
}

func runTrain(l *bench.Lab, g gpu.Spec, modelPath string) {
	sp := obs.StartPhase("dataset " + g.Name)
	ds, err := l.Dataset(g)
	sp.End()
	if err != nil {
		fatal(err)
	}
	train, test := l.Split(ds)
	fmt.Printf("dataset: %s\n", ds.Summary())

	sp = obs.StartPhase("fit E2E")
	e2e, err := core.FitE2E(train, g.Name, bench.TrainBatch)
	sp.End()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("E2E model: %s\n", e2e.Line)

	sp = obs.StartPhase("fit LW")
	lw, err := core.FitLW(train, g.Name, bench.TrainBatch)
	sp.End()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("LW model: %d layer-type regressions\n", len(lw.Lines))

	sp = obs.StartPhase("fit KW")
	kw, err := l.KW(g)
	sp.End()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("KW model: %d kernels → %d regression models, %d mapping-table entries\n",
		kw.KernelCount(), kw.ModelCount(), len(kw.Mapping))

	sp = obs.StartPhase("evaluate held-out")
	for _, m := range []core.Predictor{e2e, lw, kw} {
		evals, err := l.Evaluate(m, test, "", bench.TrainBatch)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%-4s test error: %.3f over %d held-out networks\n",
			m.Name(), core.MeanRelError(evals), len(evals))
	}
	sp.End()

	if modelPath != "" {
		if err := core.SaveFile(modelPath, kw); err != nil {
			fatal(err)
		}
		fmt.Printf("KW model written to %s\n", modelPath)
	}
}

func runPredict(l *bench.Lab, g gpu.Spec, network string, batch int, modelPath string) {
	var model core.Predictor
	if modelPath != "" {
		// Prediction from a distributed model file: no measurements needed.
		sp := obs.StartPhase("load model")
		m, err := core.LoadFile(modelPath)
		sp.End()
		if err != nil {
			fatal(err)
		}
		model = m
	} else {
		sp := obs.StartPhase("dataset " + g.Name)
		_, err := l.Dataset(g)
		sp.End()
		if err != nil {
			fatal(err)
		}
		sp = obs.StartPhase("fit KW")
		kw, err := l.KW(g)
		sp.End()
		if err != nil {
			fatal(err)
		}
		model = kw
	}
	net, err := l.Network(network)
	if err != nil {
		fatal(err)
	}
	sp := obs.StartPhase("predict " + network)
	p, err := model.PredictNetwork(net, batch)
	sp.End()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s-predicted time of %s (batch %d) on %s: %.3f ms\n",
		model.Name(), network, batch, model.GPUName(), p.Float64()*1e3)
}

func usage() {
	fmt.Fprintf(os.Stderr, `dnnperf — DNN-on-GPU execution time prediction (MICRO'23 reproduction)

usage: dnnperf [flags] <command>

commands:
  zoo | trace | collect | train | predict | serve | fleet | loadtest | sched | fleetsim | all | export | plots
`)
	line := " "
	for _, e := range experiments {
		if len(line)+1+len(e.name) > 80 {
			fmt.Fprintln(os.Stderr, line)
			line = " "
		}
		line += " " + e.name
	}
	fmt.Fprintf(os.Stderr, "%s\n\nflags:\n", line)
	flag.PrintDefaults()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dnnperf:", err)
	os.Exit(1)
}
