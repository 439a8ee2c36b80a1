// Package disagg implements case study 2 (§6): a disaggregated-memory
// system in which a GPU with small local memory computes a DNN layer by
// layer while a prefetcher streams each layer's parameters from a
// network-attached memory pool. Like the MGPUSim network model the paper
// connects its predictor to, the simulation is purely event-driven — it
// fast-forwards from event to event with no cycle-level detail, which is why
// whole bandwidth sweeps complete in milliseconds.
package disagg

import (
	"container/heap"
	"fmt"
	"math"

	"repro/internal/dnn"
	"repro/internal/obs"
	"repro/internal/units"
)

// Observability handles for the event-driven network model. The counters
// accumulate across simulations; the gauges describe the most recent one
// (bandwidth sweeps overwrite them per point, which is the intended live
// view of a running sweep).
var (
	metricSims = obs.Default().Counter("disagg_simulations_total",
		"Event-driven disaggregated-memory simulations completed.")
	metricEvents = obs.Default().Counter("disagg_events_total",
		"Discrete events processed across all simulations.")
	metricTransferred = obs.Default().BytesCounter("disagg_transferred_bytes_total",
		"Bytes moved over the disaggregation link across all simulations.")
	metricQueueDepthPeak = obs.Default().Gauge("disagg_event_queue_depth_peak",
		"Peak event-queue depth of the most recent simulation.")
	metricResidentPeak = obs.Default().Gauge("disagg_resident_bytes_peak",
		"Peak prefetched-but-unconsumed bytes of the most recent simulation.")
)

// Config describes the disaggregated system.
type Config struct {
	// LinkGBps is the network bandwidth between the GPU and the remote
	// memory pool, in GB/s.
	LinkGBps float64
	// LinkLatencyUS is the fixed per-transfer latency in microseconds.
	LinkLatencyUS float64
	// LocalMemBytes bounds the weights resident locally: prefetched-but-
	// unconsumed parameters may not exceed it. Zero means unbounded.
	LocalMemBytes units.Bytes
}

// LayerJob is one layer's work: its compute time (obtained from a
// performance model — the connection point to internal/core) and the bytes
// that must cross the link before compute can start. In a disaggregated
// system the remote pool holds both the parameters and the spilled
// activations (the GPU's local memory is small by design), so RemoteBytes is
// typically weights + input/output activation traffic.
type LayerJob struct {
	// Name labels the layer for traces.
	Name string
	// ComputeSeconds is the layer's GPU execution time.
	ComputeSeconds units.Seconds
	// RemoteBytes is the traffic the prefetcher moves over the link for
	// this layer.
	RemoteBytes units.Bytes
}

// JobsFromNetwork infers the network's shapes at the batch size and builds
// its per-layer job list: compute times from layerTime (a performance
// model's per-layer prediction), remote traffic from the layer's fp32
// weights plus its input and output activations.
func JobsFromNetwork(n *dnn.Network, batch int, layerTime func(*dnn.Layer) units.Seconds) ([]LayerJob, error) {
	if err := n.Infer(batch); err != nil {
		return nil, err
	}
	jobs := make([]LayerJob, 0, len(n.Layers))
	for _, l := range n.Layers {
		traffic := 4 * l.WeightCount()
		for _, s := range l.InShapes {
			traffic += 4 * s.Numel()
		}
		traffic += 4 * l.OutShape.Numel()
		jobs = append(jobs, LayerJob{
			Name:           l.Name,
			ComputeSeconds: layerTime(l),
			RemoteBytes:    units.Bytes(traffic),
		})
	}
	return jobs, nil
}

// Result summarizes one simulation.
type Result struct {
	// TotalSeconds is the end-to-end completion time of one batch.
	TotalSeconds units.Seconds
	// ComputeSeconds is the total GPU busy time (sum of compute).
	ComputeSeconds units.Seconds
	// FetchSeconds is the total link busy time.
	FetchSeconds units.Seconds
	// StallSeconds is GPU idle time spent waiting for parameters.
	StallSeconds units.Seconds
}

// ComputeUtilization is the fraction of total time the GPU computed.
func (r Result) ComputeUtilization() float64 {
	if r.TotalSeconds == 0 {
		return 0
	}
	return float64(r.ComputeSeconds / r.TotalSeconds)
}

// event kinds of the discrete-event engine.
type eventKind int

const (
	evFetchDone eventKind = iota
	evComputeDone
)

// event is one scheduled occurrence.
type event struct {
	at   float64
	kind eventKind
	idx  int // layer index
	seq  int // tie-break for determinism
}

// eventQueue is a min-heap on (at, seq).
type eventQueue []event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at < q[j].at {
		return true
	}
	if q[i].at > q[j].at {
		return false
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x interface{}) { *q = append(*q, x.(event)) }
func (q *eventQueue) Pop() interface{} {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}

// Simulate runs the event-driven model: the prefetcher fetches layer
// parameters in order over the serial link (respecting the local-memory
// window); the GPU computes layer i once layer i−1 finished and layer i's
// parameters arrived.
func Simulate(jobs []LayerJob, cfg Config) (Result, error) {
	if cfg.LinkGBps <= 0 {
		return Result{}, fmt.Errorf("disagg: link bandwidth must be positive, got %v", cfg.LinkGBps)
	}
	for i, j := range jobs {
		if j.ComputeSeconds < 0 || j.RemoteBytes < 0 {
			return Result{}, fmt.Errorf("disagg: job %d (%s) has negative work", i, j.Name)
		}
		if cfg.LocalMemBytes > 0 && j.RemoteBytes > cfg.LocalMemBytes {
			return Result{}, fmt.Errorf("disagg: job %d (%s) traffic (%d B) exceeds local memory (%d B)",
				i, j.Name, j.RemoteBytes, cfg.LocalMemBytes)
		}
	}
	if len(jobs) == 0 {
		return Result{}, nil
	}

	linkBytesPerSec := cfg.LinkGBps * 1e9
	latency := cfg.LinkLatencyUS * 1e-6

	var (
		now            float64
		q              eventQueue
		seq            int
		nextFetch      int // next layer whose fetch hasn't started
		nextCompute    int // next layer to compute
		fetched        = make([]bool, len(jobs))
		computing      = -1
		linkBusy       bool
		residentB      units.Bytes // prefetched-but-unconsumed bytes
		res            Result
		lastComputeEnd float64

		// Telemetry accumulators, folded into the obs metrics once at the
		// end so the event loop stays free of atomic traffic.
		movedB        units.Bytes
		peakQueue     int
		peakResidentB units.Bytes
		eventCount    int64
	)

	push := func(at float64, k eventKind, idx int) {
		heap.Push(&q, event{at: at, kind: k, idx: idx, seq: seq})
		seq++
		if len(q) > peakQueue {
			peakQueue = len(q)
		}
	}

	// tryStartFetch launches the next in-order fetch if the link is free and
	// the local-memory window has room.
	tryStartFetch := func() {
		for !linkBusy && nextFetch < len(jobs) {
			j := jobs[nextFetch]
			if cfg.LocalMemBytes > 0 && residentB+j.RemoteBytes > cfg.LocalMemBytes {
				return // window full; retry when compute frees space
			}
			dur := latency + float64(j.RemoteBytes)/linkBytesPerSec
			residentB += j.RemoteBytes
			movedB += j.RemoteBytes
			if residentB > peakResidentB {
				peakResidentB = residentB
			}
			res.FetchSeconds += units.Seconds(dur)
			linkBusy = true
			push(now+dur, evFetchDone, nextFetch)
			nextFetch++
		}
	}

	// tryStartCompute launches the next layer if the GPU is idle and its
	// parameters arrived.
	tryStartCompute := func() {
		if computing >= 0 || nextCompute >= len(jobs) || !fetched[nextCompute] {
			return
		}
		j := jobs[nextCompute]
		res.StallSeconds += units.Seconds(now - lastComputeEnd)
		res.ComputeSeconds += j.ComputeSeconds
		computing = nextCompute
		push(now+float64(j.ComputeSeconds), evComputeDone, nextCompute)
	}

	tryStartFetch()
	tryStartCompute()
	for q.Len() > 0 {
		e := heap.Pop(&q).(event)
		if e.at < now {
			return Result{}, fmt.Errorf("disagg: event time went backwards (%v < %v)", e.at, now)
		}
		now = e.at
		eventCount++
		switch e.kind {
		case evFetchDone:
			fetched[e.idx] = true
			linkBusy = false
			tryStartFetch()
			tryStartCompute()
		case evComputeDone:
			residentB -= jobs[e.idx].RemoteBytes
			computing = -1
			nextCompute = e.idx + 1
			lastComputeEnd = now
			tryStartFetch()
			tryStartCompute()
		}
	}
	if nextCompute != len(jobs) {
		return Result{}, fmt.Errorf("disagg: deadlock — computed %d of %d layers (local memory too small for the prefetch window?)",
			nextCompute, len(jobs))
	}
	res.TotalSeconds = units.Seconds(now)

	metricSims.Inc()
	metricEvents.Add(eventCount)
	metricTransferred.Add(movedB)
	metricQueueDepthPeak.Set(int64(peakQueue))
	metricResidentPeak.Set(int64(peakResidentB))
	return res, nil
}

// Sweep simulates the same job list across several link bandwidths and
// returns each total time, in the input order.
func Sweep(jobs []LayerJob, base Config, bandwidthsGBps []float64) ([]Result, error) {
	out := make([]Result, len(bandwidthsGBps))
	for i, bw := range bandwidthsGBps {
		cfg := base
		cfg.LinkGBps = bw
		r, err := Simulate(jobs, cfg)
		if err != nil {
			return nil, fmt.Errorf("disagg: sweep at %v GB/s: %w", bw, err)
		}
		out[i] = r
	}
	return out, nil
}

// Speedups normalizes a sweep's totals to the first entry's total —
// Figure 17 plots "speedup over 16 GB/s network".
func Speedups(results []Result) []float64 {
	out := make([]float64, len(results))
	if len(results) == 0 || results[0].TotalSeconds == 0 {
		return out
	}
	base := results[0].TotalSeconds
	for i, r := range results {
		if r.TotalSeconds == 0 {
			out[i] = math.Inf(1)
			continue
		}
		out[i] = float64(base / r.TotalSeconds)
	}
	return out
}
