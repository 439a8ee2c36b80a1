package fleetsim

import (
	"fmt"

	"repro/internal/loadgen"
	"repro/internal/rng"
)

// RouterKind selects how arrivals are dispatched to replicas.
type RouterKind uint8

// The supported routers.
const (
	// RouteJSQ joins the shortest queue: the replica with the fewest
	// requests queued or in service, ties to the lowest replica id. The
	// online baseline real load balancers approximate.
	RouteJSQ RouterKind = iota
	// RouteRR is round-robin, the routing-agnostic control.
	RouteRR
	// RoutePlanned follows a precomputed per-request assignment (see
	// PlanRoute), the seam scheduler policies plug into.
	RoutePlanned
)

// String returns the router's JSON/CLI name.
func (r RouterKind) String() string {
	switch r {
	case RouteRR:
		return "rr"
	case RoutePlanned:
		return "planned"
	default:
		return "jsq"
	}
}

// Config parameterizes one simulation.
type Config struct {
	// Fleet lists the GPU type id (index into the StepTable's GPUs) of
	// each replica; len(Fleet) is the replica count.
	Fleet []int32
	// MaxBatch caps formed batches; 0 defaults to the table's MaxBatch.
	// When a replica frees up it serves the head-of-queue request batched
	// with the consecutive same-network requests behind it, up to the cap —
	// greedy immediate batch formation with no artificial linger delay.
	MaxBatch int
	// PostProcS is the fixed per-request post-processing time in seconds
	// added after the batch's step completes (it does not occupy the GPU).
	PostProcS float64
	// Router selects the dispatch rule; Planned holds the per-request
	// replica assignment RoutePlanned follows.
	Router  RouterKind
	Planned []int32
	// Users > 0 switches to closed-loop mode: no trace, Users virtual
	// users each issuing its next request one think time after the
	// previous response, until HorizonS simulated seconds have passed.
	Users      int
	ThinkMeanS float64
	HorizonS   float64
	// Seed drives the closed-loop request mix and think times.
	Seed int64
	// RecordTimeline keeps a per-batch span log for Perfetto export. It
	// allocates during replay, so benchmarks leave it off.
	RecordTimeline bool
}

// BatchSpan is one executed batch for timeline export.
type BatchSpan struct {
	Replica int32
	Net     int32
	Size    int32
	StartS  float64
	DurS    float64
}

// Result summarizes one replay. Util and MaxQueueDepth alias buffers owned
// by the Sim and are valid until the next Replay.
type Result struct {
	// Requests served; Unfinished is always 0 (both modes drain fully)
	// and is reported so downstream gates can assert it.
	Requests   int64 `json:"requests"`
	Unfinished int64 `json:"unfinished"`
	// SimSeconds is the simulated makespan: the last request completion
	// including post-processing.
	SimSeconds float64 `json:"sim_seconds"`
	// Exact end-to-end latency quantiles over all served requests, seconds.
	P50S  float64 `json:"p50_s"`
	P90S  float64 `json:"p90_s"`
	P99S  float64 `json:"p99_s"`
	P999S float64 `json:"p999_s"`
	MaxS  float64 `json:"max_s"`
	// MeanBatch is the mean formed batch size; Events and Batches count
	// processed events and executed batches.
	MeanBatch float64 `json:"mean_batch"`
	Events    int64   `json:"events"`
	Batches   int64   `json:"batches"`
	// Util[r] is replica r's busy fraction of SimSeconds; MaxQueueDepth[r]
	// its high-water queued+in-service request count.
	Util          []float64 `json:"util"`
	MaxQueueDepth []int32   `json:"max_queue_depth"`
}

// Sim replays one scenario. All buffers are allocated up front (or grown
// once to the scenario's high-water mark); repeated Replay calls on a
// warmed Sim perform no allocation in open-loop mode, which is what the
// 0 allocs/op benchmark gate pins. A Sim is single-goroutine; concurrent
// scenarios each build their own (see Sweep).
type Sim struct {
	st    *StepTable
	cfg   Config
	trace *Trace

	heap  *eventHeap
	rings []ring

	// Per-replica service state: busy flag, ids of the in-service batch
	// (flat, MaxBatch per replica), its size, its start time, accumulated
	// busy seconds and the queue-depth high-water mark.
	busy        []bool
	inflight    []int32
	inflightN   []int32
	batchStartS []float64
	busyS       []float64
	maxDepth    []int32

	// Per-request state. Open loop aliases the trace's arrays; closed loop
	// appends as users issue requests.
	reqArrival []float64
	reqNet     []int32
	reqUser    []int32
	lat        []float64
	scratch    []float64

	cursor   int // next trace index to schedule
	rr       int32
	served   int64
	events   int64
	batches  int64
	sumBatch int64
	simEndS  float64

	mix      rng.Stream     // closed-loop network mix
	think    *loadgen.Think // closed-loop think times, re-seeded per replay
	timeline []BatchSpan
}

// NewSim validates the scenario and allocates the replay state.
func NewSim(st *StepTable, cfg Config, trace *Trace) (*Sim, error) {
	if len(cfg.Fleet) == 0 {
		return nil, fmt.Errorf("fleetsim: empty fleet")
	}
	for r, g := range cfg.Fleet {
		if g < 0 || int(g) >= len(st.gpus) {
			return nil, fmt.Errorf("fleetsim: replica %d references GPU type %d of %d", r, g, len(st.gpus))
		}
	}
	if cfg.MaxBatch == 0 {
		cfg.MaxBatch = st.maxBatch
	}
	if cfg.MaxBatch < 1 || cfg.MaxBatch > st.maxBatch {
		return nil, fmt.Errorf("fleetsim: max batch %d outside the table's [1, %d]", cfg.MaxBatch, st.maxBatch)
	}
	if cfg.PostProcS < 0 {
		return nil, fmt.Errorf("fleetsim: negative post-processing time %v", cfg.PostProcS)
	}
	closed := cfg.Users > 0
	if closed {
		if trace != nil {
			return nil, fmt.Errorf("fleetsim: closed-loop mode takes no trace")
		}
		if cfg.HorizonS <= 0 {
			return nil, fmt.Errorf("fleetsim: closed-loop mode needs HorizonS > 0")
		}
		if cfg.Router == RoutePlanned {
			return nil, fmt.Errorf("fleetsim: planned routing needs an open-loop trace")
		}
	} else {
		if trace == nil {
			return nil, fmt.Errorf("fleetsim: open-loop mode needs a trace")
		}
		if err := trace.Validate(len(st.nets)); err != nil {
			return nil, err
		}
		if cfg.Router == RoutePlanned && len(cfg.Planned) != trace.Len() {
			return nil, fmt.Errorf("fleetsim: planned assignment covers %d of %d requests", len(cfg.Planned), trace.Len())
		}
		if cfg.Router == RoutePlanned {
			for i, r := range cfg.Planned {
				if r < 0 || int(r) >= len(cfg.Fleet) {
					return nil, fmt.Errorf("fleetsim: request %d planned onto replica %d of %d", i, r, len(cfg.Fleet))
				}
			}
		}
	}

	nRep := len(cfg.Fleet)
	s := &Sim{
		st:          st,
		cfg:         cfg,
		trace:       trace,
		heap:        newEventHeap(2 + nRep + cfg.Users),
		rings:       make([]ring, nRep),
		busy:        make([]bool, nRep),
		inflight:    make([]int32, nRep*cfg.MaxBatch),
		inflightN:   make([]int32, nRep),
		batchStartS: make([]float64, nRep),
		busyS:       make([]float64, nRep),
		maxDepth:    make([]int32, nRep),
	}
	for r := range s.rings {
		s.rings[r] = newRing(64)
	}
	if closed {
		est := cfg.Users * 4
		s.reqArrival = make([]float64, 0, est)
		s.reqNet = make([]int32, 0, est)
		s.reqUser = make([]int32, 0, est)
		s.lat = make([]float64, 0, est)
	} else {
		s.reqArrival = trace.ArrivalS
		s.reqNet = trace.Net
		s.lat = make([]float64, trace.Len())
		s.scratch = make([]float64, trace.Len())
	}
	return s, nil
}

// Replay runs the scenario from scratch and returns its summary. Repeated
// calls yield bit-identical results; open-loop replays on a warmed Sim are
// allocation-free.
func (s *Sim) Replay() Result {
	s.resetState()

	if s.cfg.Users > 0 {
		// Closed loop: every user schedules its first request one think
		// time into the run — a deterministic stagger, no thundering herd.
		s.think = loadgen.NewThink(s.cfg.ThinkMeanS, s.cfg.Seed+1)
		s.mix = rng.New(uint64(s.cfg.Seed))
		for u := 0; u < s.cfg.Users; u++ {
			s.heap.push(s.think.Sample(), evUserNext, int32(u))
		}
	} else {
		s.heap.push(s.trace.ArrivalS[0], evArrival, 0)
		s.cursor = 1
	}

	for s.heap.n > 0 {
		e := s.heap.pop()
		s.events++
		switch e.kind {
		case evArrival:
			s.onArrival(e.idx, e.t)
		case evFree:
			s.onFree(e.idx, e.t)
		default: // evUserNext
			s.onUser(e.idx, e.t)
		}
	}

	return s.summarize()
}

// resetState rewinds every buffer without releasing capacity.
func (s *Sim) resetState() {
	s.heap.reset()
	for r := range s.rings {
		s.rings[r].reset()
		s.busy[r] = false
		s.inflightN[r] = 0
		s.batchStartS[r] = 0
		s.busyS[r] = 0
		s.maxDepth[r] = 0
	}
	if s.cfg.Users > 0 {
		s.reqArrival = s.reqArrival[:0]
		s.reqNet = s.reqNet[:0]
		s.reqUser = s.reqUser[:0]
		s.lat = s.lat[:0]
	}
	s.cursor = 0
	s.rr = 0
	s.served = 0
	s.events = 0
	s.batches = 0
	s.sumBatch = 0
	s.simEndS = 0
	s.timeline = s.timeline[:0]
}

// route picks the replica for request id under the configured router.
//
//dnnperf:allocfree
func (s *Sim) route(id int32) int32 {
	switch s.cfg.Router {
	case RoutePlanned:
		return s.cfg.Planned[id]
	case RouteRR:
		r := s.rr
		s.rr++
		if int(s.rr) == len(s.rings) {
			s.rr = 0
		}
		return r
	default: // RouteJSQ
		best := int32(0)
		bestDepth := s.rings[0].n + s.inflightN[0]
		for r := 1; r < len(s.rings); r++ {
			if d := s.rings[r].n + s.inflightN[r]; d < bestDepth {
				best = int32(r)
				bestDepth = d
			}
		}
		return best
	}
}

// onArrival dispatches one open-loop trace request and schedules the next.
func (s *Sim) onArrival(id int32, now float64) {
	s.enqueue(s.route(id), id, now)
	if s.cursor < s.trace.Len() {
		s.heap.push(s.trace.ArrivalS[s.cursor], evArrival, int32(s.cursor))
		s.cursor++
	}
}

// onUser issues one closed-loop request for user u.
func (s *Sim) onUser(u int32, now float64) {
	id := int32(len(s.reqArrival))
	s.reqArrival = append(s.reqArrival, now)
	s.reqNet = append(s.reqNet, int32(s.mix.Intn(len(s.st.nets))))
	s.reqUser = append(s.reqUser, u)
	s.lat = append(s.lat, 0)
	s.enqueue(s.route(id), id, now)
}

// enqueue queues request id on replica r, starting a batch if it is idle.
func (s *Sim) enqueue(r, id int32, now float64) {
	q := &s.rings[r]
	if q.full() {
		q.grow()
	}
	q.push(id)
	if d := q.n + s.inflightN[r]; d > s.maxDepth[r] {
		s.maxDepth[r] = d
	}
	if !s.busy[r] {
		s.startBatch(r, now)
	}
}

// startBatch forms the next batch on replica r: the head-of-queue request
// plus the consecutive same-network requests behind it, up to the batch
// cap, then schedules the completion via the step-time oracle.
//
//dnnperf:allocfree
func (s *Sim) startBatch(r int32, now float64) {
	q := &s.rings[r]
	net := s.reqNet[q.at(0)]
	b := int32(1)
	for int(b) < s.cfg.MaxBatch && b < q.n && s.reqNet[q.at(b)] == net {
		b++
	}
	base := r * int32(s.cfg.MaxBatch)
	for k := int32(0); k < b; k++ {
		s.inflight[base+k] = q.pop()
	}
	s.inflightN[r] = b
	s.batchStartS[r] = now
	step := s.st.At(s.cfg.Fleet[r], net, b)
	s.busy[r] = true
	s.busyS[r] += step
	s.batches++
	s.sumBatch += int64(b)
	s.heap.push(now+step, evFree, r)
}

// onFree completes replica r's batch: records each request's end-to-end
// latency, hands closed-loop users their next think, and forms the next
// batch if the queue is non-empty.
func (s *Sim) onFree(r int32, now float64) {
	base := r * int32(s.cfg.MaxBatch)
	n := s.inflightN[r]
	done := now + s.cfg.PostProcS
	if done > s.simEndS {
		s.simEndS = done
	}
	closed := s.cfg.Users > 0
	for k := int32(0); k < n; k++ {
		id := s.inflight[base+k]
		s.lat[id] = done - s.reqArrival[id]
		s.served++
		if closed {
			if next := done + s.think.Sample(); next <= s.cfg.HorizonS {
				s.heap.push(next, evUserNext, s.reqUser[id])
			}
		}
	}
	if s.cfg.RecordTimeline {
		s.timeline = append(s.timeline, BatchSpan{
			Replica: r,
			Net:     s.reqNet[s.inflight[base]],
			Size:    n,
			StartS:  s.batchStartS[r],
			DurS:    now - s.batchStartS[r],
		})
	}
	s.inflightN[r] = 0
	s.busy[r] = false
	if s.rings[r].n > 0 {
		s.startBatch(r, now)
	}
}

// summarize computes the replay's Result from the recorded latencies.
func (s *Sim) summarize() Result {
	res := Result{
		Requests:      s.served,
		SimSeconds:    s.simEndS,
		Events:        s.events,
		Batches:       s.batches,
		Util:          s.busyS,
		MaxQueueDepth: s.maxDepth,
	}
	if s.batches > 0 {
		res.MeanBatch = float64(s.sumBatch) / float64(s.batches)
	}
	if s.simEndS > 0 {
		for r := range s.busyS {
			s.busyS[r] /= s.simEndS
		}
	}
	if cap(s.scratch) < len(s.lat) {
		s.scratch = make([]float64, len(s.lat))
	}
	scratch := s.scratch[:len(s.lat)]
	copy(scratch, s.lat)
	res.P50S, res.P90S, res.P99S, res.P999S, res.MaxS = loadgen.Percentiles(scratch)
	return res
}

// Timeline returns the batch spans recorded under Config.RecordTimeline,
// valid until the next Replay.
func (s *Sim) Timeline() []BatchSpan { return s.timeline }
