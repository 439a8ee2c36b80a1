package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/gpu"
	"repro/internal/loadgen"
	"repro/internal/obs"
)

// The fleet subcommand scales the serving tier horizontally: it re-executes
// this binary N times as `dnnperf serve` replicas on ephemeral ports, fronts
// them with the internal/fleet consistent-hash proxy, and serves the proxy
// on -addr. The model is fitted once per fleet, as the paper distributes a
// model trained once: while the replicas boot, the parent fits the same
// Lab.KW model a self-fitting replica would warm up with, and writes the
// model's core.Save envelope to every replica's stdin (each runs
// `serve -model -`), so every replica serves the same model bytes as
// version 1. A failed fit stops the replicas and fails the command. Each
// replica owns a disjoint slice of the plan-cache key space (requests shard
// by network identity), so aggregate cache capacity grows with the fleet.
// SIGINT/SIGTERM drain the proxy first, then terminate the replicas — the
// whole cascade exits 0.
//
// The loadtest subcommand boots the same fleet, waits until every replica's
// /readyz reports a warmed model, then drives open-loop load through the
// proxy with internal/loadgen and prints a JSON summary whose
// fleet_throughput_rps / fleet_p99_ns keys feed scripts/bench_compare.sh.

// replicaBootTimeout bounds one replica's listener announcement; the model
// warm-up budget is separate (readyTimeout).
const replicaBootTimeout = 30 * time.Second

// readyTimeout bounds the whole fleet's model warm-up before a loadtest.
const readyTimeout = 300 * time.Second

// childReplica is one spawned `dnnperf serve` process; stdin is where its
// model envelope goes.
type childReplica struct {
	cmd   *exec.Cmd
	addr  string
	stdin io.WriteCloser
}

// spawnReplica re-executes this binary as one serve replica on an ephemeral
// port, reading its model from stdin, and parses the bound address off its
// stdout announcement line.
func spawnReplica(quick bool, gpuName string) (*childReplica, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("fleet: resolving own binary: %w", err)
	}
	args := []string{"-gpu", gpuName, "-addr", "127.0.0.1:0", "-model", "-"}
	if quick {
		args = append([]string{"-quick"}, args...)
	}
	args = append(args, "serve")
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("fleet: starting replica: %w", err)
	}

	addrc := make(chan string, 1)
	errc := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "dnnperf: serving on http://"); ok {
				if i := strings.IndexByte(rest, ' '); i >= 0 {
					rest = rest[:i]
				}
				addrc <- rest
				// Keep draining so the child never blocks on a full pipe.
				for sc.Scan() {
				}
				return
			}
		}
		errc <- fmt.Errorf("fleet: replica exited without announcing its address")
	}()

	select {
	case addr := <-addrc:
		return &childReplica{cmd: cmd, addr: addr, stdin: stdin}, nil
	case err := <-errc:
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		return nil, err
	case <-time.After(replicaBootTimeout):
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		return nil, fmt.Errorf("fleet: replica did not announce a listener within %v", replicaBootTimeout)
	}
}

// spawnFleet starts fitting the fleet's model, boots n replicas while the
// fit runs, and hands every replica the model's envelope from a goroutine,
// so the caller can start its proxy meanwhile. The returned channel yields
// once: nil when every replica has its envelope, or the error that stopped
// the fit or a delivery. A failed spawn tears every replica down.
func spawnFleet(n int, quick bool, g gpu.Spec) ([]*childReplica, <-chan error, error) {
	if n < 1 {
		return nil, nil, fmt.Errorf("fleet: -replicas must be >= 1, got %d", n)
	}
	type fit struct {
		env []byte
		err error
	}
	fitc := make(chan fit, 1)
	go func() {
		env, err := fitEnvelope(quick, g)
		fitc <- fit{env, err}
	}()

	var kids []*childReplica
	for i := 0; i < n; i++ {
		kid, err := spawnReplica(quick, g.Name)
		if err != nil {
			stopFleet(kids)
			return nil, nil, fmt.Errorf("replica %d: %w", i, err)
		}
		kids = append(kids, kid)
		fmt.Fprintf(os.Stderr, "dnnperf fleet: replica %d serving on %s (pid %d)\n", i, kid.addr, kid.cmd.Process.Pid)
	}

	delivered := make(chan error, 1)
	go func() {
		f := <-fitc
		if f.err != nil {
			delivered <- fmt.Errorf("fleet: fitting the model: %w", f.err)
			return
		}
		delivered <- deliverEnvelope(kids, f.env)
	}()
	return kids, delivered, nil
}

// fitEnvelope fits the model a self-fitting replica would warm up with, on
// the same lab (-quick or not), and returns its core.Save envelope.
func fitEnvelope(quick bool, g gpu.Spec) ([]byte, error) {
	newLab := bench.NewLab
	if quick {
		newLab = bench.NewQuickLab
	}
	kw, err := newLab().KW(g)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := core.Save(&buf, kw); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// deliverEnvelope writes the envelope to each replica's stdin and closes it;
// each replica publishes what it reads as version 1.
func deliverEnvelope(kids []*childReplica, env []byte) error {
	for i, kid := range kids {
		_, err := kid.stdin.Write(env)
		if cerr := kid.stdin.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("fleet: handing replica %d its model: %w", i, err)
		}
	}
	return nil
}

// stopFleet SIGTERMs every replica and waits for the drain; replicas that
// ignore the signal are killed after their own shutdownDrain budget.
func stopFleet(kids []*childReplica) {
	for _, kid := range kids {
		_ = kid.cmd.Process.Signal(syscall.SIGTERM)
	}
	for _, kid := range kids {
		done := make(chan struct{})
		go func(kid *childReplica) {
			_ = kid.cmd.Wait()
			close(done)
		}(kid)
		select {
		case <-done:
		case <-time.After(shutdownDrain + 5*time.Second):
			_ = kid.cmd.Process.Kill()
			<-done
		}
	}
}

// fleetFlags carries the fleet/loadtest tuning from main.
type fleetFlags struct {
	replicas    int
	maxInflight int
	rate        float64
	duration    time.Duration
	warmup      time.Duration
	arrival     string
	seed        int64
	traceOut    string
}

// writeFleetTrace merges the proxy's span buffer with every replica's
// /tracez.json into one Perfetto-loadable timeline, one track per process.
// Replicas that fail to scrape are skipped with a note — a partial timeline
// beats none during a teardown.
func writeFleetTrace(path string, proxy *fleet.Proxy) error {
	procs := []obs.ProcessTrace{proxy.ProcessTrace()}
	client := &http.Client{Timeout: 10 * time.Second}
	for _, addr := range proxy.ReplicaAddrs() {
		resp, err := client.Get("http://" + addr + "/tracez.json")
		if err != nil {
			fmt.Fprintf(os.Stderr, "dnnperf: scraping %s/tracez.json: %v\n", addr, err)
			continue
		}
		pt, err := obs.ReadProcessTrace(resp.Body)
		resp.Body.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "dnnperf: decoding %s/tracez.json: %v\n", addr, err)
			continue
		}
		procs = append(procs, pt)
	}
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
	fmt.Fprintf(os.Stderr, "dnnperf: merged fleet trace (%d processes) written to %s (load it at https://ui.perfetto.dev)\n",
		len(procs), path)
	return nil
}

// runFleet is the `dnnperf fleet` command: replicas + proxy until SIGTERM,
// or until the fleet's model fails to fit or reach a replica.
func runFleet(quick bool, g gpu.Spec, addr string, ff fleetFlags) error {
	kids, delivered, err := spawnFleet(ff.replicas, quick, g)
	if err != nil {
		return err
	}
	defer stopFleet(kids)

	addrs := make([]string, len(kids))
	for i, kid := range kids {
		addrs[i] = kid.addr
	}
	proxy, err := fleet.New(addrs, ff.maxInflight)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	probeCtx, stopProbes := context.WithCancel(context.Background())
	defer stopProbes()
	proxy.Start(probeCtx)

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Printf("dnnperf: fleet proxy on http://%s fronting %d replicas (endpoints: /healthz /readyz /fleetz + replica surface)\n",
		ln.Addr(), len(kids))
	if err := serveHTTP(ctx, ln, proxy, delivered); err != nil {
		return err
	}
	// Replicas are still alive here (stopFleet runs in the defer), so their
	// span buffers can be scraped into the merged timeline.
	if ff.traceOut != "" {
		if err := writeFleetTrace(ff.traceOut, proxy); err != nil {
			return err
		}
	}
	// stopFleet in the defer terminates the replicas after the proxy drain.
	return nil
}

// loadtestSummary is the loadtest's stdout contract. The fleet_* keys are
// read by scripts/bench_compare.sh; keep them stable.
type loadtestSummary struct {
	Replicas          int     `json:"replicas"`
	Arrival           string  `json:"arrival"`
	OfferedRPS        float64 `json:"offered_rps"`
	DurationSecs      float64 `json:"duration_seconds"`
	WarmupSecs        float64 `json:"warmup_seconds"`
	Sent              int64   `json:"sent"`
	Shed              int64   `json:"shed"`
	Completed         int64   `json:"completed"`
	Status2xx         int64   `json:"status_2xx"`
	Status4xx         int64   `json:"status_4xx"`
	Status429         int64   `json:"status_429"`
	Status5xx         int64   `json:"status_5xx"`
	NetErrors         int64   `json:"net_errors"`
	FleetThroughput   float64 `json:"fleet_throughput_rps"`
	FleetP50Ns        int64   `json:"fleet_p50_ns"`
	FleetP90Ns        int64   `json:"fleet_p90_ns"`
	FleetP99Ns        int64   `json:"fleet_p99_ns"`
	FleetP999Ns       int64   `json:"fleet_p999_ns"`
	FleetMaxNs        int64   `json:"fleet_max_ns"`
	ModelVersionFloor uint64  `json:"model_version_floor"`
	// SlowestRequests lists the slowest measured requests with the trace ID
	// each response echoed, for lookup in the -trace-o merged timeline.
	SlowestRequests []slowRequestSummary `json:"slowest_requests,omitempty"`
}

// slowRequestSummary is one slowest-K entry in the loadtest summary.
type slowRequestSummary struct {
	TraceID   string `json:"trace_id,omitempty"`
	LatencyNs int64  `json:"latency_ns"`
	Status    int    `json:"status"`
}

// loadtestBatches is the cached-predict batch mix the generator cycles
// through; a handful of sizes per network keeps every replica's plan cache
// warm after the first pass.
var loadtestBatches = []int{1, 8, 64, 512}

// runLoadtest is the `dnnperf loadtest` command: boot a fleet, warm it,
// drive open-loop load through the proxy, print the JSON summary.
func runLoadtest(quick bool, g gpu.Spec, network string, ff fleetFlags) error {
	arrival, err := loadgen.ParseArrival(ff.arrival)
	if err != nil {
		return err
	}
	kids, delivered, err := spawnFleet(ff.replicas, quick, g)
	if err != nil {
		return err
	}
	defer stopFleet(kids)

	addrs := make([]string, len(kids))
	for i, kid := range kids {
		addrs[i] = kid.addr
	}
	proxy, err := fleet.New(addrs, ff.maxInflight)
	if err != nil {
		return err
	}
	probeCtx, stopProbes := context.WithCancel(context.Background())
	defer stopProbes()
	proxy.Start(probeCtx)

	fmt.Fprintf(os.Stderr, "dnnperf loadtest: waiting for %d replicas to warm up (budget %v)...\n", len(kids), readyTimeout)
	if err := <-delivered; err != nil {
		return err
	}
	wctx, wcancel := context.WithTimeout(context.Background(), readyTimeout)
	defer wcancel()
	if err := proxy.WaitReady(wctx, len(kids)); err != nil {
		return err
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	front := &http.Server{Handler: proxy}
	go func() { _ = front.Serve(ln) }()
	defer front.Close()
	base := "http://" + ln.Addr().String()

	// Warm every (network, batch) plan once through the proxy so the
	// measured window exercises the cached path on all replicas.
	warmClient := &http.Client{Timeout: 30 * time.Second}
	for _, b := range loadtestBatches {
		url := fmt.Sprintf("%s/predict?network=%s&batch=%d", base, network, b)
		resp, err := warmClient.Get(url)
		if err != nil {
			return fmt.Errorf("loadtest: warming %s: %w", url, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("loadtest: warming %s: status %d: %s", url, resp.StatusCode, body)
		}
	}

	fmt.Fprintf(os.Stderr, "dnnperf loadtest: %s arrivals at %.0f rps for %v (warm-up %v) against %d replicas\n",
		arrival, ff.rate, ff.duration, ff.warmup, len(kids))
	var reqN atomic.Uint64
	res, err := loadgen.Run(context.Background(), loadgen.Config{
		NewRequest: func(rng *rand.Rand) (*http.Request, error) {
			b := loadtestBatches[rng.Intn(len(loadtestBatches))]
			req, err := http.NewRequest(http.MethodGet,
				fmt.Sprintf("%s/predict?network=%s&batch=%d", base, network, b), nil)
			if err != nil {
				return nil, err
			}
			// Inject a sampled trace context on every other request: the
			// proxy continues injected traces regardless of its own 1-in-N
			// head sampling, so the slowest-K summary entries usually carry
			// a trace ID and the merged timeline stays dense. The serving
			// defaults are untouched — this is the diagnostic path.
			if reqN.Add(1)%2 == 1 {
				req.Header.Set(obs.TraceparentHeader, obs.NewSpanContext().Traceparent())
			}
			return req, nil
		},
		Arrival:  arrival,
		Rate:     ff.rate,
		Duration: ff.duration,
		Warmup:   ff.warmup,
		Seed:     ff.seed,
	})
	if err != nil {
		return err
	}

	sum := loadtestSummary{
		Replicas:        ff.replicas,
		Arrival:         string(res.Arrival),
		OfferedRPS:      res.OfferedRPS,
		DurationSecs:    ff.duration.Seconds(),
		WarmupSecs:      ff.warmup.Seconds(),
		Sent:            res.Sent,
		Shed:            res.Shed,
		Completed:       res.Completed,
		Status2xx:       res.Status2xx,
		Status4xx:       res.Status4xx,
		Status429:       res.Status429,
		Status5xx:       res.Status5xx,
		NetErrors:       res.NetErrors,
		FleetThroughput: res.ThroughputRPS,
		FleetP50Ns:      res.P50.Nanoseconds(),
		FleetP90Ns:      res.P90.Nanoseconds(),
		FleetP99Ns:      res.P99.Nanoseconds(),
		FleetP999Ns:     res.P999.Nanoseconds(),
		FleetMaxNs:      res.Max.Nanoseconds(),
	}
	// The lowest model version across replicas, for swap-drill visibility.
	sum.ModelVersionFloor = ^uint64(0)
	for _, row := range fleetReadyVersions(proxy) {
		if row < sum.ModelVersionFloor {
			sum.ModelVersionFloor = row
		}
	}
	if sum.ModelVersionFloor == ^uint64(0) {
		sum.ModelVersionFloor = 0
	}
	for _, s := range res.Slowest {
		sum.SlowestRequests = append(sum.SlowestRequests, slowRequestSummary{
			TraceID: s.TraceID, LatencyNs: s.Latency.Nanoseconds(), Status: s.Status,
		})
	}

	if ff.traceOut != "" {
		if err := writeFleetTrace(ff.traceOut, proxy); err != nil {
			return err
		}
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(sum)
}

// fleetReadyVersions lists the model versions of the currently ready
// replicas via the proxy's introspection state.
func fleetReadyVersions(p *fleet.Proxy) []uint64 {
	var out []uint64
	for _, row := range p.Fleetz() {
		if row.Ready {
			out = append(out, row.ModelVersion)
		}
	}
	return out
}
