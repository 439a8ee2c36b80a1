package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span tracing. A Tracer collects hierarchical spans — named, timed regions
// with string arguments — and exports them as Chrome trace-event JSON
// (the `{"traceEvents": [...]}` format Perfetto and chrome://tracing load).
//
// Hierarchy is explicit, not goroutine-inferred: a span started from the
// tracer opens a new track (Chrome "thread"), and Child spans share their
// parent's track. Nested spans on one track render as a flame graph;
// concurrent pipeline stages each take a track of their own. That keeps the
// model deterministic and free of runtime goroutine-ID hacks.

// Arg is one key/value annotation on a span.
type Arg struct {
	Key string `json:"k"`
	Val string `json:"v"`
}

// TraceEvent is one completed span. The json tags define the per-process
// wire format /tracez.json serves (see ProcessTrace); durations travel as
// integer nanoseconds.
type TraceEvent struct {
	Name  string        `json:"name"`
	Cat   string        `json:"cat"`
	Track int64         `json:"track"`
	Start time.Duration `json:"start_ns"` // offset from the tracer epoch
	Dur   time.Duration `json:"dur_ns"`
	Args  []Arg         `json:"args,omitempty"`
}

// PhaseCat is the category cmd-level phases use; timing reports filter on it.
const PhaseCat = "phase"

// TaskCat is the category library-internal spans use.
const TaskCat = "task"

// RequestCat is the category of one whole served request (proxy hop or
// replica handler).
const RequestCat = "request"

// StageCat is the category of one stage inside a served request (parse,
// cache, compile, predict, render, admission, upstream wait...).
const StageCat = "stage"

// defaultMaxEvents bounds a tracer's buffer; completed spans beyond it are
// counted in Dropped instead of retained, so long collection sweeps cannot
// grow memory without bound.
const defaultMaxEvents = 1 << 20

// Tracer accumulates completed spans. Safe for concurrent use.
type Tracer struct {
	epoch time.Time
	// now returns the current offset from the epoch; tests substitute a
	// deterministic clock.
	now func() time.Duration

	mu        sync.Mutex
	events    []TraceEvent
	maxEvents int
	dropped   int64
	nextTrack int64
}

// NewTracer returns a tracer whose epoch is now.
func NewTracer() *Tracer {
	t := &Tracer{epoch: time.Now(), maxEvents: defaultMaxEvents}
	t.now = func() time.Duration { return time.Since(t.epoch) }
	return t
}

// Now returns the current offset from the epoch — the clock Complete events
// are timed with. Nil-safe (returns 0).
func (t *Tracer) Now() time.Duration {
	if t == nil {
		return 0
	}
	return t.now()
}

// Start opens a top-level span on a fresh track.
func (t *Tracer) Start(name, cat string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.nextTrack++
	track := t.nextTrack
	t.mu.Unlock()
	return &Span{tracer: t, name: name, cat: cat, track: track, start: t.now()}
}

// Complete records an externally timed event (e.g. a profiler kernel
// timeline replayed onto the trace) without the Start/End protocol.
func (t *Tracer) Complete(ev TraceEvent) {
	if t == nil {
		return
	}
	t.add(ev)
}

// ReserveTrack allocates a track number for Complete events.
func (t *Tracer) ReserveTrack() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextTrack++
	return t.nextTrack
}

func (t *Tracer) add(ev TraceEvent) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.events) >= t.maxEvents {
		t.dropped++
		return
	}
	t.events = append(t.events, ev)
}

// Events returns a copy of the completed spans sorted by (start, track,
// name) — a deterministic order for reports and encoders.
func (t *Tracer) Events() []TraceEvent {
	t.mu.Lock()
	out := make([]TraceEvent, len(t.events))
	copy(out, t.events)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Track != b.Track {
			return a.Track < b.Track
		}
		return a.Name < b.Name
	})
	return out
}

// Dropped reports how many spans the buffer cap discarded. Nil-safe, so the
// obs_trace_dropped_total gauge can read it with no tracer installed.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

func init() {
	// Drops used to be silent; surfacing them as a metric means a scrape (or
	// /metricsz aggregation) shows when a trace is incomplete.
	Default().GaugeFunc("obs_trace_dropped_total",
		"Completed spans discarded because the installed tracer's buffer was full.",
		func() int64 { return CurrentTracer().Dropped() })
}

// Span is one open region. A nil *Span is a valid no-op, which is what
// StartSpan returns when no tracer is installed.
type Span struct {
	tracer *Tracer
	name   string
	cat    string
	track  int64
	start  time.Duration
	args   []Arg

	mu    sync.Mutex
	ended bool
}

// Child opens a sub-span on the same track.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return &Span{tracer: s.tracer, name: name, cat: s.cat, track: s.track, start: s.tracer.now()}
}

// SetArg annotates the span. Call before End.
func (s *Span) SetArg(key, val string) {
	if s == nil {
		return
	}
	s.args = append(s.args, Arg{Key: key, Val: val})
}

// End completes the span and records it. Idempotent.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.mu.Unlock()
	s.tracer.add(TraceEvent{
		Name:  s.name,
		Cat:   s.cat,
		Track: s.track,
		Start: s.start,
		Dur:   s.tracer.now() - s.start,
		Args:  s.args,
	})
}

// globalTracer is the installed tracer; nil means spans are no-ops.
var globalTracer atomic.Pointer[Tracer]

// SetTracer installs (or, with nil, removes) the global tracer.
func SetTracer(t *Tracer) { globalTracer.Store(t) }

// CurrentTracer returns the installed tracer, or nil.
func CurrentTracer() *Tracer { return globalTracer.Load() }

// StartSpan opens a library-internal span on the global tracer. With no
// tracer installed the cost is one atomic pointer load and the returned nil
// span makes every method a no-op.
func StartSpan(name string) *Span {
	return CurrentTracer().Start(name, TaskCat)
}

// StartPhase opens a command-level phase span on the global tracer; -timing
// reports print phase spans only.
func StartPhase(name string) *Span {
	return CurrentTracer().Start(name, PhaseCat)
}
