package registry

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dnn"
	"repro/internal/gpu"
	"repro/internal/obs"
	"repro/internal/zoo"
)

func TestPublishMonotonicVersions(t *testing.T) {
	r := New()
	if r.Current() != nil || r.Version() != 0 {
		t.Fatalf("empty registry: Current=%v Version=%d", r.Current(), r.Version())
	}
	m1, m2 := &core.KWModel{GPU: "A100"}, &core.KWModel{GPU: "A100"}
	s1, err := r.Publish(m1, "warmup")
	if err != nil {
		t.Fatal(err)
	}
	s2, err := r.Publish(m2, "swap")
	if err != nil {
		t.Fatal(err)
	}
	if s1.Version != 1 || s2.Version != 2 {
		t.Fatalf("versions %d, %d; want 1, 2", s1.Version, s2.Version)
	}
	if cur := r.Current(); cur != s2 || cur.Model != m2 {
		t.Fatalf("current = %+v, want the second snapshot", cur)
	}
	// The superseded snapshot must stay intact for in-flight readers.
	if s1.Model != m1 || s1.Source != "warmup" {
		t.Fatalf("old snapshot mutated: %+v", s1)
	}
}

func TestPublishNilRejected(t *testing.T) {
	if _, err := New().Publish(nil, "x"); err == nil {
		t.Fatal("publishing nil model succeeded")
	}
}

func TestHistoryBounded(t *testing.T) {
	r := New()
	m := &core.KWModel{GPU: "T4"}
	for i := 0; i < historyCap+5; i++ {
		if _, err := r.Publish(m, "swap"); err != nil {
			t.Fatal(err)
		}
	}
	h := r.History()
	if len(h) != historyCap {
		t.Fatalf("history length %d, want %d", len(h), historyCap)
	}
	// Oldest first, versions contiguous, ending at the current version.
	for i := 1; i < len(h); i++ {
		if h[i].Version != h[i-1].Version+1 {
			t.Fatalf("history versions not contiguous: %d then %d", h[i-1].Version, h[i].Version)
		}
	}
	if last := h[len(h)-1].Version; last != r.Version() {
		t.Fatalf("history ends at version %d, current is %d", last, r.Version())
	}
	if h[0].GPU != "T4" {
		t.Fatalf("history entry GPU = %q", h[0].GPU)
	}
}

// TestConcurrentPublishAndRead exercises the swap path under the race
// detector: readers must always observe a fully formed snapshot whose
// version never runs backwards.
func TestConcurrentPublishAndRead(t *testing.T) {
	r := New()
	const publishers, perPublisher = 4, 50
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				if s := r.Current(); s != nil {
					if s.Model == nil || s.Version == 0 {
						t.Error("observed a half-built snapshot")
						return
					}
					if s.Version < last {
						t.Errorf("version ran backwards: %d after %d", s.Version, last)
						return
					}
					last = s.Version
				}
			}
		}()
	}
	var pw sync.WaitGroup
	for p := 0; p < publishers; p++ {
		pw.Add(1)
		go func() {
			defer pw.Done()
			m := &core.KWModel{GPU: "A100"}
			for i := 0; i < perPublisher; i++ {
				if _, err := r.Publish(m, "swap"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	pw.Wait()
	close(stop)
	wg.Wait()
	if got := r.Version(); got != publishers*perPublisher {
		t.Fatalf("final version %d, want %d", got, publishers*perPublisher)
	}
}

// cacheGauge reads one model-cache gauge from the global obs registry.
func cacheGauge(t *testing.T, name string) int64 {
	t.Helper()
	for _, m := range obs.Default().Snapshot() {
		if m.Name == name {
			return m.Value
		}
	}
	t.Fatalf("gauge %s not registered", name)
	return 0
}

// TestPublishBindsCacheGauges: the model-cache gauges describe the published
// model, also when it came from Load (the POST /modelz hot swap) rather than
// from a fit.
func TestPublishBindsCacheGauges(t *testing.T) {
	opt := dataset.DefaultBuildOptions()
	opt.Batches = 3
	opt.Warmup = 1
	opt.E2EBatchSizes = []int{512}
	ds, _, err := dataset.Build([]*dnn.Network{zoo.MustResNet(18)}, []gpu.Spec{gpu.A100}, opt)
	if err != nil {
		t.Fatal(err)
	}
	fitted, err := core.FitKW(ds, "A100", 512)
	if err != nil {
		t.Fatal(err)
	}
	var saved bytes.Buffer
	if err := core.Save(&saved, fitted); err != nil {
		t.Fatal(err)
	}
	p, err := core.Load(&saved)
	if err != nil {
		t.Fatal(err)
	}
	loaded := p.(*core.KWModel)

	r := New()
	if _, err := r.Publish(fitted, "warmup"); err != nil {
		t.Fatal(err)
	}
	if _, err := fitted.CompiledPlan(zoo.MustResNet(18)); err != nil {
		t.Fatal(err)
	}
	if got := cacheGauge(t, "core_kw_plan_cache_entries"); got != 1 {
		t.Fatalf("fitted model serving: plan cache entries = %d, want 1", got)
	}

	if _, err := r.Publish(loaded, "modelz-post"); err != nil {
		t.Fatal(err)
	}
	if got := cacheGauge(t, "core_kw_layer_memo_entries"); got != 0 {
		t.Fatalf("after the swap: layer memo entries = %d, want the loaded model's 0", got)
	}
	for _, n := range []*dnn.Network{zoo.MustResNet(34), zoo.MustResNet(50), zoo.MustVGG(11, false)} {
		if _, err := loaded.CompiledPlan(n); err != nil {
			t.Fatal(err)
		}
	}
	for name, want := range map[string]int64{
		"core_kw_plan_cache_entries":   3,
		"core_kw_plan_cache_misses":    3,
		"core_kw_plan_cache_hits":      0,
		"core_kw_plan_cache_evictions": 0,
	} {
		if got := cacheGauge(t, name); got != want {
			t.Errorf("loaded model serving: %s = %d, want %d", name, got, want)
		}
	}
	if got := cacheGauge(t, "core_kw_layer_memo_entries"); got == 0 {
		t.Error("loaded model serving: layer memo entries = 0 after three compiles")
	}
}
