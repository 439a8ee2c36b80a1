package fleet

import (
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
)

// Request tracing at the proxy. The proxy is the head of every request, so
// it owns the sampling decision: 1 in sampleEvery forwarded requests
// gets a fresh trace (the first forwarded request is always sampled), and a
// request arriving with a valid sampled `traceparent` header continues its
// existing trace. Sampled requests carry their context to the replica in a
// `traceparent` header and echo the trace ID to the client in `X-Trace-Id`;
// the proxy's own stages (shard pick, admission, upstream wait, retry hops)
// are an obs.RequestTrace on one reserved track, so the whole process
// renders as a single timeline row in Perfetto.
//
// Unsampled requests cost one counter increment and two clock reads; if one
// turns out bad — 5xx, or slower than slowSample — a single summary
// span is recorded post-hoc so tail latency is never invisible. (Post-hoc
// means the response headers are already gone; deliberate trade: the header
// echo only exists for head-sampled requests.)

// sampleRequest decides whether this forwarded request is traced. Returns
// nil for unsampled requests — every method on a nil *obs.RequestTrace is a
// no-op.
func (p *Proxy) sampleRequest(req *http.Request) *obs.RequestTrace {
	if vs := req.Header[obs.TraceparentHeader]; len(vs) > 0 {
		if sc, ok := obs.ParseTraceparent(vs[0]); ok && sc.Flags&obs.FlagSampled != 0 {
			return p.tracer.TraceRequest(p.reqTrack, sc.Child())
		}
	}
	n := p.sampleN.Add(1)
	if (n-1)%sampleEvery != 0 {
		return nil
	}
	return p.tracer.TraceRequest(p.reqTrack, obs.NewSpanContext())
}

// recordBadUnsampled records the post-hoc summary span for an unsampled
// request that erred or exceeded the slow threshold.
func (p *Proxy) recordBadUnsampled(method, path string, status int, start, end time.Duration) {
	if status < 500 && end-start < slowSample {
		return
	}
	name := "slow_request"
	if status >= 500 {
		name = "error_request"
	}
	p.tracer.Complete(obs.TraceEvent{
		Name:  name,
		Cat:   obs.RequestCat,
		Track: p.reqTrack,
		Start: start,
		Dur:   end - start,
		Args: []obs.Arg{
			{Key: "route", Val: method + " " + path},
			{Key: "status", Val: strconv.Itoa(status)},
		},
	})
}

// ProcessTrace snapshots the proxy's span buffer for merged timelines.
func (p *Proxy) ProcessTrace() obs.ProcessTrace {
	return p.tracer.ProcessTrace(processName)
}

// ReplicaAddrs lists the backend addresses (for trace and metric scraping).
func (p *Proxy) ReplicaAddrs() []string {
	out := make([]string, len(p.replicas))
	for i, r := range p.replicas {
		out[i] = r.addr
	}
	return out
}

// writeTracez serves the proxy's own span buffer as a ProcessTrace document.
func (p *Proxy) writeTracez(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = obs.WriteProcessTrace(w, p.ProcessTrace())
}

// writeSloz serves the proxy-level SLO burn-rate report.
func (p *Proxy) writeSloz(w http.ResponseWriter) {
	writeJSON(w, http.StatusOK, p.slo.Report())
}

// writeMetricsz scrapes every replica's /metrics.json and serves the merged
// fleet view: counters and gauges summed, histograms summed bucket-wise
// (exact — all replicas run the same code with the same bucket edges).
// Replicas that fail to scrape are listed in "failed"; metric names whose
// shapes disagree are listed in "skipped".
func (p *Proxy) writeMetricsz(w http.ResponseWriter) {
	var sets [][]obs.MetricJSON
	var failed []string
	scraped := 0
	for _, r := range p.replicas {
		ms, err := p.scrapeMetrics(r.addr)
		if err != nil {
			failed = append(failed, r.addr)
			continue
		}
		scraped++
		sets = append(sets, ms)
	}
	merged, skipped := obs.MergeMetrics(sets...)
	writeJSON(w, http.StatusOK, map[string]any{
		"replicas": len(p.replicas),
		"scraped":  scraped,
		"failed":   failed,
		"skipped":  skipped,
		"metrics":  merged,
	})
}

// scrapeMetrics fetches one replica's metric document.
func (p *Proxy) scrapeMetrics(addr string) ([]obs.MetricJSON, error) {
	resp, err := p.probes.Get("http://" + addr + "/metrics.json")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, errStatus(resp.StatusCode)
	}
	return obs.DecodeMetrics(resp.Body)
}

// errStatus is a minimal non-200 scrape error.
type errStatus int

func (e errStatus) Error() string { return "status " + strconv.Itoa(int(e)) }
