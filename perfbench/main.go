// Command perfbench is the repository's benchmark. It runs one named
// workload with a given seed for a given number of seconds, checks every
// answer the program gives, and prints as its last line one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end metrics; with --trace 1
// the run also records spans around each call into a layer, writes them as
// one Perfetto trace under --out, and prints the per-layer metrics instead.
// serve-novel drives a real `dnnperf fleet` (the binary given by
// --dnnperf); the offline workloads call the packages in-process. See
// README.md for the workloads and metrics, and run.sh for the entry point.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// metricDef is one reported metric: its name, unit and which direction is
// better. The two tables below mirror BENCHMARK.json (a test checks that).
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics an untraced run reports.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"p50_ms", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"kw_error_pct", "%", "lower"},
}

// perLayer are the metrics a traced run reports. A workload that does not
// exercise a layer reports its metrics as 0.
var perLayer = []metricDef{
	{"loadgen.late_us_p99", "us", "lower"},
	{"loadgen.conn_wait_us_p50", "us", "lower"},
	{"loadgen.p99_ms", "ms", "lower"},
	{"loadgen.samples", "count", "higher"},
	{"fleet.overhead_us", "us", "lower"},
	{"fleet.non2xx", "count", "lower"},
	{"fleet.max_replica_share", "ratio", "lower"},
	{"serve.rtt_us", "us", "lower"},
	{"serve.handler_us", "us", "lower"},
	{"serve.http_us", "us", "lower"},
	{"serve.stage_parse_us", "us", "lower"},
	{"serve.stage_cache_us", "us", "lower"},
	{"serve.stage_predict_us", "us", "lower"},
	{"serve.stage_render_us", "us", "lower"},
	{"core.plan_compiles", "1/req", "lower"},
	{"core.compile_us", "us", "lower"},
	{"core.sweep_us", "us", "lower"},
	{"cache.plan_hit_ratio", "ratio", "higher"},
	{"cache.plan_evictions", "1/req", "lower"},
	{"core.predict_us", "us", "lower"},
	{"core.compile_us_inproc", "us", "lower"},
	{"ledger.e2e_us", "us", "lower"},
	{"ledger.unexplained_us", "us", "lower"},
	{"zoo.build_ms", "ms", "lower"},
	{"profiler.profile_ms", "ms", "lower"},
	{"dataset.build_ms", "ms", "lower"},
	{"dataset.records", "count", "higher"},
	{"dataset.split_ms", "ms", "lower"},
	{"core.fit_kw_ms", "ms", "lower"},
	{"core.eval_ms", "ms", "lower"},
	{"runtime.allocs_per_op", "count", "lower"},
	{"runtime.alloc_mb_per_op", "MB", "lower"},
	{"runtime.gc_per_op", "count", "lower"},
	{"core.steptable_ms", "ms", "lower"},
	{"loadgen.trace_ms", "ms", "lower"},
	{"sched.plan_ms_lpt", "ms", "lower"},
	{"sched.plan_ms_search", "ms", "lower"},
	{"fleetsim.replay_ms", "ms", "lower"},
	{"fleetsim.events", "count", "lower"},
	{"fleetsim.events_per_s", "1/s", "higher"},
	{"fleetsim.batches", "count", "lower"},
	{"fleetsim.replay_allocs", "count", "lower"},
	{"fleetsim.sim_requests_per_s", "1/s", "higher"},
	{"trace.overhead_pct", "%", "lower"},
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	window   time.Duration // the measured window
	traced   bool
	dnnperf  string // dnnperf binary, for serve-novel
	out      string // directory the traced run writes its trace into
	tracer   *obs.Tracer
}

// run accumulates one invocation's verdict and metrics. attempted and
// failed are updated from the load goroutines; metrics only from the
// workload's own goroutine.
type run struct {
	attempted, failed atomic.Int64
	metrics           map[string]float64

	mu       sync.Mutex
	failures []string // the first few failure reasons, for stderr
}

// fail counts one failed operation and keeps its reason.
func (r *run) fail(format string, args ...any) {
	r.failed.Add(1)
	r.mu.Lock()
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
	r.mu.Unlock()
}

// workloads maps each workload name to its driver.
var workloads = map[string]func(cfg config, r *run) error{
	"serve-novel":   runServeNovel,
	"collect-fit":   runCollectFit,
	"capacity-plan": runCapacityPlan,
}

func main() {
	var cfg config
	var seconds float64
	var trace int
	var coldSetup string
	flag.StringVar(&cfg.workload, "workload", "", "workload: serve-novel, collect-fit or capacity-plan")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&seconds, "seconds", 10, "length of the measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 records spans and reports the per-layer metrics")
	flag.StringVar(&cfg.dnnperf, "dnnperf", "", "dnnperf binary serve-novel starts")
	flag.StringVar(&cfg.out, "out", ".bench_build", "directory the traced run writes its trace into")
	flag.StringVar(&coldSetup, "cold-setup", "", "time one set-up of this offline workload in this fresh process and print it (used by the benchmark itself)")
	flag.Parse()

	if coldSetup != "" {
		if err := printColdSetup(coldSetup); err != nil {
			fatal(err)
		}
		return
	}
	drive, ok := workloads[cfg.workload]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", cfg.workload))
	}
	if seconds <= 0 || trace < 0 || trace > 1 {
		fatal(fmt.Errorf("--seconds must be positive and --trace 0 or 1"))
	}
	cfg.window = time.Duration(seconds * float64(time.Second))
	cfg.traced = trace == 1
	if cfg.traced {
		cfg.tracer = obs.NewTracer()
	}

	r := &run{metrics: map[string]float64{}}
	if err := drive(cfg, r); err != nil {
		fatal(fmt.Errorf("%s: %w", cfg.workload, err))
	}
	for _, f := range r.failures {
		fmt.Fprintln(os.Stderr, "perfbench: failed op:", f)
	}
	if err := printResult(cfg, r); err != nil {
		fatal(err)
	}
}

// printResult writes the result object as the last line of stdout.
func printResult(cfg config, r *run) error {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEnd
	if cfg.traced {
		defs = perLayer
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Attempted: r.attempted.Load(), Failed: r.failed.Load(), Metrics: map[string]metric{}}
	out.Correct = out.Failed == 0 && out.Attempted > 0
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !cfg.traced && !ok {
			return fmt.Errorf("%s did not measure %s", cfg.workload, d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s measured a non-finite %s", cfg.workload, d.name)
		}
		out.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// coldSetups is how many fresh processes the offline workloads time their
// set-up in; setup_s is the median.
const coldSetups = 5

// medianColdSetup re-executes this binary coldSetups times, each timing one
// set-up of the workload in a fresh process, and returns the median.
func medianColdSetup(workload string) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var secs []float64
	for i := 0; i < coldSetups; i++ {
		cmd := exec.Command(exe, "--cold-setup", workload)
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		if err != nil {
			return 0, fmt.Errorf("cold set-up %d: %w", i, err)
		}
		s, err := strconv.ParseFloat(strings.TrimSpace(string(b)), 64)
		if err != nil {
			return 0, fmt.Errorf("cold set-up %d printed %q: %w", i, b, err)
		}
		secs = append(secs, s)
	}
	return median(secs), nil
}

// printColdSetup is the child side of medianColdSetup.
func printColdSetup(workload string) error {
	var secs float64
	var err error
	switch workload {
	case "collect-fit":
		secs, err = coldCollectFit()
	case "capacity-plan":
		secs, err = coldCapacityPlan()
	default:
		err = fmt.Errorf("no cold set-up for workload %q", workload)
	}
	if err != nil {
		return err
	}
	fmt.Println(strconv.FormatFloat(secs, 'g', -1, 64))
	return nil
}

// vmHWMMB reads a process's peak resident set size (VmHWM) in MB.
func vmHWMMB(pid int) (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM of pid %d: %w", pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// writeTrace writes the benchmark's own spans, merged with the given
// process traces, as one Perfetto-loadable file under cfg.out.
func writeTrace(cfg config, others []obs.ProcessTrace) error {
	procs := append([]obs.ProcessTrace{cfg.tracer.ProcessTrace("perfbench " + cfg.workload)}, others...)
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	path := filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d_trace.json", cfg.workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTraceMerged(f, procs); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: trace of %d processes written to %s\n", len(procs), path)
	return nil
}

// ms and us convert a duration to float milliseconds and microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
