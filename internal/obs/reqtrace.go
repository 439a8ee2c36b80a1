package obs

import (
	"strconv"
	"time"
)

// Request tracing in the serving tier. The fleet proxy is the head of every
// request and owns the sampling decision; it sends a sampled request's
// context to the replica in a traceparent header and echoes the trace ID to
// the client in TraceIDHeader, as the replica does too. Each process records
// a sampled request's stages as Complete events on one reserved track, so a
// merged timeline shows one row per process.

// TraceparentHeader is the W3C propagation header in its canonical form,
// usable as a direct header-map key.
const TraceparentHeader = "Traceparent"

// TraceIDHeader is the response header echoing a sampled request's trace ID.
const TraceIDHeader = "X-Trace-Id"

// RequestTrace follows one sampled request through a serving process. A nil
// *RequestTrace is an unsampled request: every method is a no-op.
type RequestTrace struct {
	tr    *Tracer
	track int64
	sc    SpanContext
	start time.Duration
	last  time.Duration
}

// TraceRequest starts a request trace under sc whose spans land on track.
func (t *Tracer) TraceRequest(track int64, sc SpanContext) *RequestTrace {
	now := t.Now()
	return &RequestTrace{tr: t, track: track, sc: sc, start: now, last: now}
}

// Context returns the request's span context.
func (rt *RequestTrace) Context() SpanContext {
	if rt == nil {
		return SpanContext{}
	}
	return rt.sc
}

// Stage completes a stage span covering everything since the previous
// stage boundary, or the request start.
func (rt *RequestTrace) Stage(name string) {
	if rt == nil {
		return
	}
	rt.Span(name, rt.last)
}

// Span completes a stage span from `from` to now with args after the
// trace_id, and makes now the next stage boundary.
func (rt *RequestTrace) Span(name string, from time.Duration, args ...Arg) {
	if rt == nil {
		return
	}
	now := rt.tr.Now()
	rt.tr.Complete(TraceEvent{
		Name:  name,
		Cat:   StageCat,
		Track: rt.track,
		Start: from,
		Dur:   now - from,
		Args:  append([]Arg{{Key: "trace_id", Val: rt.sc.TraceID()}}, args...),
	})
	rt.last = now
}

// Finish completes the whole-request span with the response status.
func (rt *RequestTrace) Finish(name string, status int) {
	if rt == nil {
		return
	}
	now := rt.tr.Now()
	rt.tr.Complete(TraceEvent{
		Name:  name,
		Cat:   RequestCat,
		Track: rt.track,
		Start: rt.start,
		Dur:   now - rt.start,
		Args: []Arg{
			{Key: "trace_id", Val: rt.sc.TraceID()},
			{Key: "status", Val: strconv.Itoa(status)},
		},
	})
}
