// Package registry provides a versioned, immutable model registry with
// atomic hot-swap. A serving replica holds exactly one Registry; publishing
// a newly fitted (or newly loaded) coefficient set installs it as the
// current snapshot in one atomic pointer store, so requests that already
// loaded the previous snapshot finish against the model they started with —
// a swap never drops or corrupts an in-flight prediction.
//
// Versions are monotonic per registry and start at 1. Snapshots are
// immutable: the registry never mutates a published model, and callers must
// treat the coefficient set behind a snapshot as read-only (the staleplan
// analyzer enforces that only the fitting constructors write coefficients).
//
// The registry keeps a bounded history of recent publications for the
// /modelz introspection endpoint, and exports swap counts through the obs
// registry so a fleet's model churn is visible next to its request metrics.
package registry

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// Registry-level observability, aggregated across every registry in the
// process (a serving replica normally has one).
var (
	obsPublishes = obs.Default().Counter("registry_publishes_total",
		"Model snapshots published (including the initial warm-up publish).")
	obsSwaps = obs.Default().Counter("registry_swaps_total",
		"Model hot-swaps: publishes that replaced an already-serving snapshot.")
)

// historyCap bounds the per-registry publication log kept for introspection.
const historyCap = 16

// Snapshot is one published, immutable (version, model) pair.
type Snapshot struct {
	// Version is the registry-monotonic version ID, starting at 1.
	Version uint64
	// Model is the coefficient set serving under this version. Read-only.
	Model *core.KWModel
	// Source records where the model came from ("warmup", "swap", a file
	// path, ...) for the introspection surface.
	Source string
	// PublishedAt is the wall-clock publication instant.
	PublishedAt time.Time
}

// Entry is one row of the bounded publication history.
type Entry struct {
	Version     uint64    `json:"version"`
	Source      string    `json:"source"`
	GPU         string    `json:"gpu"`
	Kernels     int       `json:"kernels"`
	Groups      int       `json:"groups"`
	PublishedAt time.Time `json:"published_at"`
}

// Registry is a versioned model holder with atomic hot-swap. The zero value
// is ready to use and starts empty (Current returns nil until the first
// Publish).
type Registry struct {
	cur atomic.Pointer[Snapshot]

	// mu serializes publishers so version assignment and the history log
	// stay consistent; readers never take it.
	mu      sync.Mutex
	nextVer uint64
	history []Entry
}

// New returns an empty registry.
func New() *Registry { return &Registry{} }

// Publish installs model as the current snapshot under the next monotonic
// version and returns that snapshot. Publish is safe for concurrent use with
// readers and other publishers; readers that loaded the previous snapshot
// keep serving it untouched. It also binds the model-cache gauges
// (KWModel.RegisterMetrics) to the published model, under the same lock as
// the store, so they describe the model that serves.
func (r *Registry) Publish(model *core.KWModel, source string) (*Snapshot, error) {
	if model == nil {
		return nil, fmt.Errorf("registry: cannot publish a nil model")
	}
	r.mu.Lock()
	r.nextVer++
	snap := &Snapshot{
		Version:     r.nextVer,
		Model:       model,
		Source:      source,
		PublishedAt: time.Now(),
	}
	swapped := r.cur.Load() != nil
	r.cur.Store(snap)
	model.RegisterMetrics()
	r.history = append(r.history, Entry{
		Version: snap.Version, Source: source,
		GPU: model.GPUName(), Kernels: model.KernelCount(), Groups: model.ModelCount(),
		PublishedAt: snap.PublishedAt,
	})
	if len(r.history) > historyCap {
		r.history = r.history[len(r.history)-historyCap:]
	}
	r.mu.Unlock()

	obsPublishes.Inc()
	if swapped {
		obsSwaps.Inc()
	}
	return snap, nil
}

// Current returns the serving snapshot, or nil before the first Publish.
// The returned snapshot stays valid (and immutable) after later swaps.
func (r *Registry) Current() *Snapshot { return r.cur.Load() }

// Version returns the current version ID, or 0 before the first Publish.
func (r *Registry) Version() uint64 {
	if s := r.cur.Load(); s != nil {
		return s.Version
	}
	return 0
}

// History returns a copy of the bounded publication log, oldest first.
func (r *Registry) History() []Entry {
	r.mu.Lock()
	out := make([]Entry, len(r.history))
	copy(out, r.history)
	r.mu.Unlock()
	return out
}

// RegisterMetrics exposes this instance's current version through the global
// obs registry under the given metric name prefix. Registering the same
// prefix again rebinds the gauge to the newest instance.
func (r *Registry) RegisterMetrics(prefix string) {
	obs.Default().GaugeFunc(prefix+"_version",
		"Version ID of the model snapshot currently serving.",
		func() int64 { return int64(r.Version()) })
}
