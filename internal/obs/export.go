package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"time"
)

// Exporters. All three are deterministic for a given state: metrics are
// emitted sorted by name (Registry.Snapshot sorts), trace events sorted by
// start time (Tracer.Events sorts), and every float is formatted with
// strconv's shortest round-trip form.

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): one HELP/TYPE header per metric, histograms as
// cumulative `_bucket{le="..."}` series plus `_sum` and `_count`.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, m := range r.Snapshot() {
		if m.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", m.Name, m.Help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", m.Name, m.Kind); err != nil {
			return err
		}
		switch m.Kind {
		case KindHistogram:
			for _, b := range m.Buckets {
				le := "+Inf"
				if !math.IsInf(float64(b.UpperSeconds), 1) {
					le = formatFloat(float64(b.UpperSeconds))
				}
				if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", m.Name, le, b.Cumulative); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_sum %s\n", m.Name, formatFloat(float64(m.Sum))); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_count %d\n", m.Name, m.Count); err != nil {
				return err
			}
		default:
			if _, err := fmt.Fprintf(w, "%s %d\n", m.Name, m.Value); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteJSON renders the registry snapshot as a JSON document:
// {"metrics": [...]} with metrics sorted by name.
func (r *Registry) WriteJSON(w io.Writer) error {
	type doc struct {
		Metrics []MetricJSON `json:"metrics"`
	}
	snap := r.Snapshot()
	out := doc{Metrics: make([]MetricJSON, len(snap))}
	for i, m := range snap {
		out.Metrics[i] = toJSONMetric(m)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// MetricJSON flattens a MetricSnapshot for JSON: histograms carry finite
// bucket edges as numbers and the +Inf bucket as the total count.
type MetricJSON struct {
	Name    string       `json:"name"`
	Help    string       `json:"help,omitempty"`
	Kind    Kind         `json:"kind"`
	Unit    string       `json:"unit,omitempty"`
	Value   *int64       `json:"value,omitempty"`
	Sum     *float64     `json:"sum_seconds,omitempty"`
	Count   *uint64      `json:"count,omitempty"`
	Buckets []BucketJSON `json:"buckets,omitempty"`
}

type BucketJSON struct {
	// LE is the bucket's inclusive upper bound in seconds; null marks +Inf.
	LE         *float64 `json:"le_seconds"`
	Cumulative uint64   `json:"cumulative"`
}

func toJSONMetric(m MetricSnapshot) MetricJSON {
	j := MetricJSON{Name: m.Name, Help: m.Help, Kind: m.Kind, Unit: m.Unit}
	if m.Kind == KindHistogram {
		sum := float64(m.Sum)
		count := m.Count
		j.Sum, j.Count = &sum, &count
		j.Buckets = make([]BucketJSON, len(m.Buckets))
		for i, b := range m.Buckets {
			bb := BucketJSON{Cumulative: b.Cumulative}
			if !math.IsInf(float64(b.UpperSeconds), 1) {
				le := float64(b.UpperSeconds)
				bb.LE = &le
			}
			j.Buckets[i] = bb
		}
		return j
	}
	v := m.Value
	j.Value = &v
	return j
}

// chromeEvent is one entry of the Chrome trace-event JSON array: a complete
// span ("ph":"X") or a metadata record ("ph":"M").
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	PID  int64             `json:"pid"`
	TID  int64             `json:"tid"`
	TS   float64           `json:"ts"`
	Dur  float64           `json:"dur,omitempty"`
	Args map[string]string `json:"args,omitempty"`
}

// chromeDoc is the {"traceEvents": [...]} envelope Perfetto loads.
type chromeDoc struct {
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	TraceEvents     []chromeEvent `json:"traceEvents"`
}

// chromeSpan converts one TraceEvent, shifting its start by shift and
// placing it in process pid.
func chromeSpan(ev TraceEvent, pid int64, shift time.Duration) chromeEvent {
	ce := chromeEvent{
		Name: ev.Name,
		Cat:  ev.Cat,
		Ph:   "X",
		PID:  pid,
		TID:  ev.Track,
		TS:   micros(shift + ev.Start),
		Dur:  micros(ev.Dur),
	}
	if len(ev.Args) > 0 {
		// encoding/json sorts map keys, so args serialize deterministically
		// no matter the SetArg order.
		ce.Args = make(map[string]string, len(ev.Args))
		for _, a := range ev.Args {
			ce.Args[a.Key] = a.Val
		}
	}
	return ce
}

// droppedWarning is the metadata event appended when a tracer's buffer cap
// discarded spans, so a loaded trace says it is incomplete instead of
// silently missing events.
func droppedWarning(pid, dropped int64) chromeEvent {
	return chromeEvent{
		Name: "trace_dropped_warning",
		Ph:   "M",
		PID:  pid,
		Args: map[string]string{
			"dropped": strconv.FormatInt(dropped, 10),
			"warning": "span buffer overflowed; this trace is incomplete",
		},
	}
}

// WriteChromeTrace renders the tracer's completed spans as Chrome
// trace-event JSON: {"displayTimeUnit":"ms","traceEvents":[...]} with one
// complete ("ph":"X") event per span, timestamps and durations in
// microseconds. The output loads directly in Perfetto or chrome://tracing.
// If the buffer cap discarded spans, a trailing metadata event carries the
// drop count.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	evs := t.Events()
	doc := chromeDoc{DisplayTimeUnit: "ms", TraceEvents: make([]chromeEvent, 0, len(evs)+1)}
	for _, ev := range evs {
		doc.TraceEvents = append(doc.TraceEvents, chromeSpan(ev, 1, 0))
	}
	if d := t.Dropped(); d > 0 {
		doc.TraceEvents = append(doc.TraceEvents, droppedWarning(1, d))
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}

// micros converts a duration to the float microseconds Chrome traces use.
func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// formatFloat renders a float in its shortest round-trip decimal form.
func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
