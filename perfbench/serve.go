package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/dnn"
	"repro/internal/loadgen"
	"repro/internal/obs"
)

// Load shape. The benchmark process drives the fleet from at most
// loadConns keep-alive connections, matching the 2 cores the benchmark is
// sized for, so the load generator never needs more threads than the box.
const (
	fleetReplicas = 2
	fleetSpawns   = 5 // setup_s is the median over this many fleet starts
	loadConns     = 2
	// closedShare of the window runs the closed loop (ops_per_s); the rest
	// runs the open loop (p50_ms), in loadSlices alternating slices.
	closedShare = 0.4
	loadSlices  = 8
	// traceEvery: in the traced closed-loop slices, one request in
	// traceEvery carries a sampled traceparent.
	traceEvery = 16
	// ledgerWindow is the traced run's sequential proxied/direct phase.
	ledgerWindow = 2 * time.Second
	// novelRate is the open-loop arrival rate, about a tenth of the fleet's
	// closed-loop capacity: low enough that a slower stretch of machine
	// time does not turn into queueing.
	novelRate = 150
	// planCacheEntries is each replica's plan-cache capacity; serve-novel
	// measures only once every replica has compiled more plans than that.
	planCacheEntries = 1024
)

// fleetProc is one running `dnnperf -quick -replicas 2 fleet`.
type fleetProc struct {
	cmd      *exec.Cmd
	proxy    string   // proxy host:port
	replicas []string // replica host:port, in spawn order
	pids     []int    // replica pids, in spawn order
	exited   chan struct{}
}

// startFleet spawns a fleet and waits until every replica's /readyz
// answers 200, polling the replicas directly (the proxy's own prober ticks
// every 250 ms and would quantize the start-up time). It returns the time
// from spawn to that point, then waits, untimed, until the proxy routes to
// every replica.
func startFleet(bin string) (*fleetProc, time.Duration, error) {
	cmd := exec.Command(bin, "-quick", "-replicas", strconv.Itoa(fleetReplicas), "-addr", "127.0.0.1:0", "fleet")
	// If the benchmark dies, the fleet gets SIGTERM and stops its replicas.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting %s: %w", bin, err)
	}
	f := &fleetProc{cmd: cmd, exited: make(chan struct{})}
	proxyc := make(chan string, 1)
	type replicaLine struct {
		addr string
		pid  int
	}
	replicac := make(chan replicaLine, fleetReplicas)
	var readers sync.WaitGroup
	readers.Add(2)
	go func() {
		defer readers.Done()
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "dnnperf: fleet proxy on http://"); ok {
				addr, _, _ := strings.Cut(rest, " ")
				proxyc <- addr
			}
		}
	}()
	go func() {
		defer readers.Done()
		sc := bufio.NewScanner(stderr)
		n := 0
		for sc.Scan() {
			var idx, pid int
			var addr string
			if _, err := fmt.Sscanf(sc.Text(), "dnnperf fleet: replica %d serving on %s (pid %d)", &idx, &addr, &pid); err == nil && n < fleetReplicas {
				replicac <- replicaLine{addr, pid}
				n++
				continue
			}
			fmt.Fprintln(os.Stderr, "fleet:", sc.Text())
		}
	}()
	// The pipes reach EOF only once the fleet and its replicas have exited
	// (the replicas share the fleet's stderr); only then may Wait run.
	go func() {
		readers.Wait()
		_ = cmd.Wait()
		close(f.exited)
	}()

	fail := func(err error) (*fleetProc, time.Duration, error) {
		f.stop()
		return nil, 0, err
	}
	for len(f.replicas) < fleetReplicas {
		select {
		case rl := <-replicac:
			f.replicas = append(f.replicas, rl.addr)
			f.pids = append(f.pids, rl.pid)
		case <-f.exited:
			return fail(fmt.Errorf("fleet exited before announcing its replicas"))
		case <-time.After(60 * time.Second):
			return fail(fmt.Errorf("fleet did not announce its replicas within 60s"))
		}
	}
	poll := &http.Client{Timeout: 2 * time.Second}
	for _, addr := range f.replicas {
		if err := waitFor(poll, "http://"+addr+"/readyz", 120*time.Second, func(status int, _ []byte) bool {
			return status == http.StatusOK
		}); err != nil {
			return fail(err)
		}
	}
	ready := time.Since(start)

	select {
	case f.proxy = <-proxyc:
	case <-time.After(30 * time.Second):
		return fail(fmt.Errorf("fleet did not announce its proxy within 30s"))
	}
	err = waitFor(poll, "http://"+f.proxy+"/fleetz", 30*time.Second, func(status int, body []byte) bool {
		var fz struct {
			Replicas []struct {
				Addr  string `json:"addr"`
				Ready bool   `json:"ready"`
			} `json:"replicas"`
		}
		if status != http.StatusOK || json.Unmarshal(body, &fz) != nil || len(fz.Replicas) != len(f.replicas) {
			return false
		}
		for i, row := range fz.Replicas {
			if !row.Ready || row.Addr != f.replicas[i] {
				return false
			}
		}
		return true
	})
	if err != nil {
		return fail(err)
	}
	return f, ready, nil
}

// waitFor polls url every 5 ms until done accepts the answer.
func waitFor(c *http.Client, url string, limit time.Duration, done func(status int, body []byte) bool) error {
	deadline := time.Now().Add(limit)
	for {
		if resp, err := c.Get(url); err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if done(resp.StatusCode, body) {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready within %v", url, limit)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop SIGTERMs the fleet, which drains its proxy and stops its replicas,
// and waits for all of them; anything still running after 30s is killed.
func (f *fleetProc) stop() {
	_ = f.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-f.exited:
		return
	case <-time.After(30 * time.Second):
	}
	_ = f.cmd.Process.Kill()
	for _, pid := range f.pids {
		_ = syscall.Kill(pid, syscall.SIGKILL)
	}
	<-f.exited
}

// peakRSSMB sums VmHWM over the proxy process and its replicas.
func (f *fleetProc) peakRSSMB() (float64, error) {
	var total float64
	for _, pid := range append([]int{f.cmd.Process.Pid}, f.pids...) {
		mb, err := vmHWMMB(pid)
		if err != nil {
			return 0, err
		}
		total += mb
	}
	return total, nil
}

// scrapeReplicas reads every replica's /metrics.json.
func (f *fleetProc) scrapeReplicas(c *http.Client) ([]scrape, error) {
	out := make([]scrape, len(f.replicas))
	for i, addr := range f.replicas {
		resp, err := c.Get("http://" + addr + "/metrics.json")
		if err != nil {
			return nil, err
		}
		out[i], err = parseScrape(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", addr, err)
		}
	}
	return out, nil
}

// traces reads the proxy's and every replica's span buffer.
func (f *fleetProc) traces(c *http.Client) ([]obs.ProcessTrace, error) {
	var out []obs.ProcessTrace
	for _, addr := range append([]string{f.proxy}, f.replicas...) {
		resp, err := c.Get("http://" + addr + "/tracez.json")
		if err != nil {
			return nil, err
		}
		pt, err := obs.ReadProcessTrace(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("%s/tracez.json: %w", addr, err)
		}
		out = append(out, pt)
	}
	return out, nil
}

// newConn returns a client that holds at most one keep-alive connection.
func newConn() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// send issues request i of tf on c against base and checks the answer. It
// returns the X-Fleet-Replica header (empty on direct requests).
func send(c *http.Client, tf traffic, i int, base string, traceparent string) (string, error) {
	req, err := tf.request(i, base)
	if err != nil {
		return "", err
	}
	if traceparent != "" {
		req.Header.Set("traceparent", traceparent)
	}
	resp, err := c.Do(req)
	if err != nil {
		return "", err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return "", err
	}
	return resp.Header.Get("X-Fleet-Replica"), tf.check(i, resp.StatusCode, body)
}

// loadStats is what one load phase observed.
type loadStats struct {
	ok, failed int64
	elapsed    time.Duration
	byReplica  map[string]int64
}

// closedLoop runs len(conns) workers, each sending its next request as soon
// as the previous one is answered, from index *next on, until dur has
// passed. With tr non-nil, every traceEvery-th request carries a sampled
// traceparent and gets a client-side span.
func closedLoop(conns []*http.Client, base string, tf traffic, next *atomic.Int64, dur time.Duration, r *run, tr *obs.Tracer) loadStats {
	var ok, failed atomic.Int64
	counts := make([]map[string]int64, len(conns))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for w, c := range conns {
		counts[w] = map[string]int64{}
		wg.Add(1)
		go func(w int, c *http.Client) {
			defer wg.Done()
			var track int64
			if tr != nil {
				track = tr.ReserveTrack()
			}
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				tp, sc := "", obs.SpanContext{}
				if tr != nil && i%traceEvery == 0 {
					sc = obs.NewSpanContext()
					tp = sc.Traceparent()
				}
				t0 := tr.Now()
				replica, err := send(c, tf, i, base, tp)
				if tp != "" {
					tr.Complete(obs.TraceEvent{Name: "client request", Cat: obs.RequestCat, Track: track,
						Start: t0, Dur: tr.Now() - t0, Args: []obs.Arg{{Key: "trace_id", Val: sc.TraceID()}}})
				}
				r.attempted.Add(1)
				if err != nil {
					failed.Add(1)
					r.fail("request %d: %v", i, err)
					continue
				}
				ok.Add(1)
				counts[w][replica]++
			}
		}(w, c)
	}
	wg.Wait()
	st := loadStats{ok: ok.Load(), failed: failed.Load(), elapsed: time.Since(start), byReplica: map[string]int64{}}
	for _, m := range counts {
		for k, v := range m {
			st.byReplica[k] += v
		}
	}
	return st
}

// arrivalSchedule is the seeded Poisson schedule of an open loop at rate
// per second over dur, as due offsets from the loop's origin.
func arrivalSchedule(rate float64, seed int64, dur time.Duration) ([]time.Duration, error) {
	proc, err := loadgen.NewArrivals(loadgen.Poisson, loadgen.ArrivalsConfig{Rate: rate, Seed: seed})
	if err != nil {
		return nil, err
	}
	var out []time.Duration
	for {
		at := time.Duration(proc.Next() * float64(time.Second))
		if at >= dur {
			return out, nil
		}
		out = append(out, at)
	}
}

// openLoop sends request first+k at due time due[k], from len(conns)
// workers that each hold one keep-alive connection. Each request is timed
// from its due time; when both connections are busy at a due time the
// request waits for one, and that wait counts in its latency.
func openLoop(conns []*http.Client, base string, tf traffic, first int, due []time.Duration, r *run) []openSample {
	samples := make([]openSample, len(due))
	var next atomic.Int64
	var wg sync.WaitGroup
	origin := time.Now().Add(10 * time.Millisecond)
	for _, c := range conns {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(due) {
					return
				}
				s := openSample{due: due[k], pickup: time.Since(origin)}
				sleepUntil(origin, s.due)
				s.send = time.Since(origin)
				_, err := send(c, tf, first+k, base, "")
				s.done = time.Since(origin)
				r.attempted.Add(1)
				if err != nil {
					r.fail("request %d: %v", first+k, err)
				}
				samples[k] = s
			}
		}(c)
	}
	wg.Wait()
	return samples
}

// sleepUntil blocks the calling thread until offset at from origin. It
// sleeps in nanosleep rather than time.Sleep: the Go timer wakes with
// about a millisecond of slack, which at 1000 arrivals per second would
// make the generator, not the program, set the measured latency.
func sleepUntil(origin time.Time, at time.Duration) {
	d := at - time.Since(origin)
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// serveRun is the state of one serve workload invocation.
type serveRun struct {
	cfg   config
	r     *run
	ref   *fitResult
	tf    traffic
	fleet *fleetProc
	next  atomic.Int64 // next request index; novel specs are never reused
	scrap *http.Client
	conns []*http.Client
}

// runServeNovel is the serve-novel workload: POST /predict/batch sweeps of
// never-repeated inline networks through a real fleet, so every request
// decodes a body, misses the plan cache, compiles and evicts. Its phases:
// fleet start-ups (setup_s), filling the plan caches, closed-loop
// (ops_per_s) and open-loop (p50_ms) slices, and in the traced run the
// cached-/predict layer ledger and the merged trace.
func runServeNovel(cfg config, r *run) error {
	ref, err := collectFit(nil)
	if err != nil {
		return err
	}
	// Enough bodies for the fill and a fleet a few times faster than
	// today's; later indexes are generated on demand.
	pregen := 3*planCacheEntries + int(cfg.window.Seconds()*(closedShare*3000+novelRate)) + 4000
	tf := newNovelTraffic(ref, cfg.seed, pregen)
	s := &serveRun{cfg: cfg, r: r, ref: ref, tf: tf, scrap: &http.Client{Timeout: 10 * time.Second}}
	r.metrics["kw_error_pct"] = ref.errPct
	for i := 0; i < loadConns; i++ {
		s.conns = append(s.conns, newConn())
	}

	var setups []float64
	for i := 0; i < fleetSpawns; i++ {
		sp := cfg.tracer.Start(fmt.Sprintf("fleet start %d", i), obs.PhaseCat)
		f, ready, err := startFleet(cfg.dnnperf)
		sp.End()
		if err != nil {
			return err
		}
		setups = append(setups, ready.Seconds())
		if i < fleetSpawns-1 {
			f.stop()
			continue
		}
		s.fleet = f
	}
	defer s.fleet.stop()
	r.metrics["setup_s"] = median(setups)
	base := "http://" + s.fleet.proxy

	sp := cfg.tracer.Start("fill plan caches", obs.PhaseCat)
	err = s.fillPlanCaches(base)
	sp.End()
	if err != nil {
		return err
	}

	var before []scrape
	if cfg.traced {
		if before, err = s.fleet.scrapeReplicas(s.scrap); err != nil {
			return err
		}
	}
	// The window alternates closed-loop and open-loop slices, so both
	// metrics sample the same stretches of machine time, and each metric is
	// the median over its slices, so a slow stretch of a few slices does not
	// move it. In the traced run the closed slices go plain, traced, traced,
	// plain (ABBA, so drift cancels) and their rates give
	// trace.overhead_pct.
	closedDur := time.Duration(float64(cfg.window) * closedShare / loadSlices)
	openDur := time.Duration(float64(cfg.window) * (1 - closedShare) / loadSlices)
	var plain, traced loadStats
	var samples []openSample
	var rates, p50s []float64
	for k := 0; k < loadSlices; k++ {
		var tr *obs.Tracer
		if cfg.traced && (k%4 == 1 || k%4 == 2) {
			tr = cfg.tracer
		}
		sp := cfg.tracer.Start(fmt.Sprintf("closed loop %d", k), obs.PhaseCat)
		st := closedLoop(s.conns, base, tf, &s.next, closedDur, r, tr)
		sp.End()
		rates = append(rates, rateOf(st))
		if tr != nil {
			traced = merge(traced, st)
		} else {
			plain = merge(plain, st)
		}
		sp = cfg.tracer.Start(fmt.Sprintf("open loop %d", k), obs.PhaseCat)
		due, err := arrivalSchedule(novelRate, cfg.seed*loadSlices+int64(k), openDur)
		if err != nil {
			return err
		}
		first := int(s.next.Add(int64(len(due))) - int64(len(due)))
		slice := openLoop(s.conns, base, tf, first, due, r)
		p50s = append(p50s, percentile(sortedMicros(slice, openSample.latency), 0.5)/1e3)
		samples = append(samples, slice...)
		sp.End()
	}
	closed := merge(plain, traced)
	r.metrics["ops_per_s"] = median(rates)
	r.metrics["p50_ms"] = median(p50s)
	lat := sortedMicros(samples, openSample.latency)
	fmt.Fprintf(os.Stderr, "perfbench: closed-loop slices %.0f ops/s, open-loop slice p50s %.3f ms, answers per replica %v\n",
		rates, p50s, closed.byReplica)
	if cfg.traced {
		r.metrics["trace.overhead_pct"] = 100 * (rateOf(plain)/rateOf(traced) - 1)
		after, err := s.fleet.scrapeReplicas(s.scrap)
		if err != nil {
			return err
		}
		s.cacheMetrics(delta{before, after}, closed.ok+closed.failed+int64(len(samples)), closed)
		r.metrics["loadgen.p99_ms"] = percentile(lat, 0.99) / 1e3
		r.metrics["loadgen.samples"] = float64(len(samples))
		r.metrics["loadgen.late_us_p99"] = percentile(sortedMicros(samples, openSample.late), 0.99)
		r.metrics["loadgen.conn_wait_us_p50"] = percentile(sortedMicros(samples, openSample.connWait), 0.5)
	}

	rss, err := s.fleet.peakRSSMB()
	if err != nil {
		return err
	}
	r.metrics["peak_rss_mb"] = rss

	if cfg.traced {
		ht, err := newHotTraffic(ref, cfg.seed)
		if err != nil {
			return err
		}
		owners, err := s.warmHot(base, ht)
		if err != nil {
			return err
		}
		if err := s.ledger(base, ht, owners); err != nil {
			return err
		}
		if err := s.inProcess(ht); err != nil {
			return err
		}
		procs, err := s.fleet.traces(s.scrap)
		if err != nil {
			return err
		}
		if err := writeTrace(cfg, procs); err != nil {
			return err
		}
	}
	sp = cfg.tracer.Start("verify", obs.PhaseCat)
	tf.verify(r)
	sp.End()
	r.metrics["fleet.non2xx"] = float64(r.failed.Load())
	return nil
}

// warmHot sends every cached-/predict pair once through the proxy, checks
// the answers, and returns the replica that owns each pair.
func (s *serveRun) warmHot(base string, ht *hotTraffic) ([]string, error) {
	owners := make([]string, len(ht.paths))
	for p := range ht.paths {
		req, err := http.NewRequest(http.MethodGet, base+ht.paths[p], nil)
		if err != nil {
			return nil, err
		}
		resp, err := s.conns[0].Do(req)
		if err != nil {
			return nil, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		s.r.attempted.Add(1)
		if resp.StatusCode != http.StatusOK || !bytes.Equal(body, ht.want[p]) {
			s.r.fail("warm-up %s: status %d, body %s", ht.paths[p], resp.StatusCode, bytes.TrimSpace(body))
		}
		owners[p] = resp.Header.Get("X-Fleet-Replica")
	}
	return owners, nil
}

// fillPlanCaches keeps sending new specs until every replica has compiled
// more plans than its cache holds and has started evicting.
func (s *serveRun) fillPlanCaches(base string) error {
	for {
		sc, err := s.fleet.scrapeReplicas(s.scrap)
		if err != nil {
			return err
		}
		full := true
		for _, m := range sc {
			if m.value("core_kw_plan_cache_misses") < planCacheEntries || m.value("core_kw_plan_cache_evictions") == 0 {
				full = false
			}
		}
		if full {
			return nil
		}
		st := closedLoop(s.conns, base, s.tf, &s.next, 250*time.Millisecond, s.r, nil)
		if st.ok == 0 {
			return fmt.Errorf("no request succeeded while filling the plan caches")
		}
	}
}

// cacheMetrics reports the replica counters over the closed loop.
func (s *serveRun) cacheMetrics(d delta, requests int64, closed loadStats) {
	m := s.r.metrics
	n := float64(requests)
	m["core.plan_compiles"] = float64(d.value("core_plan_compiles_total")) / n
	m["core.compile_us"] = d.meanUs("core_plan_compile_seconds")
	m["core.sweep_us"] = d.meanUs("core_sweep_predict_seconds")
	hits, misses := d.value("core_kw_plan_cache_hits"), d.value("core_kw_plan_cache_misses")
	if hits+misses > 0 {
		m["cache.plan_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	m["cache.plan_evictions"] = float64(d.value("core_kw_plan_cache_evictions")) / n
	var top int64
	for _, v := range closed.byReplica {
		top = max(top, v)
	}
	if closed.ok > 0 {
		m["fleet.max_replica_share"] = float64(top) / float64(closed.ok)
	}
}

// ledger runs the traced run's sequential phase on the cached GET /predict
// mix, alternating one request through the proxy with one straight to the
// pair's owning replica, and attributes the mean proxied round trip to the
// layers: proxy hop, replica HTTP, and the handler's stages.
func (s *serveRun) ledger(base string, ht *hotTraffic, owners []string) error {
	sp := s.cfg.tracer.Start("ledger", obs.PhaseCat)
	defer sp.End()
	before, err := s.fleet.scrapeReplicas(s.scrap)
	if err != nil {
		return err
	}
	var proxied, direct time.Duration
	var nProxied, nDirect int
	deadline := time.Now().Add(ledgerWindow)
	for k := 0; time.Now().Before(deadline); k++ {
		i := int(s.next.Add(1) - 1)
		target := base
		if k%2 == 1 {
			target = "http://" + owners[ht.pair(i)]
		}
		t := time.Now()
		_, err := send(s.conns[0], ht, i, target, "")
		d := time.Since(t)
		s.r.attempted.Add(1)
		if err != nil {
			s.r.fail("ledger request %d: %v", i, err)
			continue
		}
		if k%2 == 0 {
			proxied += d
			nProxied++
		} else {
			direct += d
			nDirect++
		}
	}
	after, err := s.fleet.scrapeReplicas(s.scrap)
	if err != nil {
		return err
	}
	if nProxied == 0 || nDirect == 0 {
		return fmt.Errorf("ledger phase completed no requests")
	}
	d := delta{before, after}
	m := s.r.metrics
	l := ledger{e2e: us(proxied) / float64(nProxied), direct: us(direct) / float64(nDirect)}
	l.handler = d.meanUs("serve_route_predict_seconds")
	for _, st := range []string{"parse", "cache", "predict", "render"} {
		v := d.meanUs("serve_stage_" + st + "_seconds")
		m["serve.stage_"+st+"_us"] = v
		l.inner += v
	}
	m["ledger.e2e_us"] = l.e2e
	m["serve.rtt_us"] = l.direct
	m["serve.handler_us"] = l.handler
	m["serve.http_us"] = l.http()
	m["fleet.overhead_us"] = l.overhead()
	m["ledger.unexplained_us"] = l.unexplained()
	return nil
}

// inProcessCalls bounds the in-process timing loops of the traced run.
const (
	inProcessPredicts = 20000
	inProcessCompiles = 200
)

// inProcess times the core calls under the serving path with a model
// identical to the replicas': PredictNetwork on the cached /predict mix and
// CompilePlan on serve-novel specs.
func (s *serveRun) inProcess(ht *hotTraffic) error {
	sp := s.cfg.tracer.Start("in-process core", obs.PhaseCat)
	defer sp.End()
	// Resolve each network once, as the replicas' network cache does.
	nets := make([]*dnn.Network, len(hotNets))
	for j, name := range hotNets {
		var err error
		if nets[j], err = s.ref.lab.Network(name); err != nil {
			return err
		}
	}
	start := time.Now()
	for i := 0; i < inProcessPredicts; i++ {
		p := ht.pair(i)
		if _, err := s.ref.model.PredictNetwork(nets[p/len(hotBatches)], hotBatches[p%len(hotBatches)]); err != nil {
			return err
		}
	}
	s.r.metrics["core.predict_us"] = us(time.Since(start)) / inProcessPredicts
	compile, err := compileSpecs(s.ref.model, s.cfg.seed, int(s.next.Load())+1_000_000, inProcessCompiles)
	if err != nil {
		return err
	}
	s.r.metrics["core.compile_us_inproc"] = compile
	return nil
}

// rateOf is a load phase's verified ops per second.
func rateOf(st loadStats) float64 { return float64(st.ok) / st.elapsed.Seconds() }

// merge adds two load phases together.
func merge(a, b loadStats) loadStats {
	out := loadStats{ok: a.ok + b.ok, failed: a.failed + b.failed, elapsed: a.elapsed + b.elapsed, byReplica: map[string]int64{}}
	for _, m := range []map[string]int64{a.byReplica, b.byReplica} {
		for k, v := range m {
			out.byReplica[k] += v
		}
	}
	return out
}
