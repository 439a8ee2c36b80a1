package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestPercentileIsCeilRank(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{
		{0.01, 1}, {0.1, 1}, {0.11, 2}, {0.5, 5}, {0.9, 9}, {0.99, 10}, {1, 10},
	} {
		if got := percentile(sorted, c.q); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples should be NaN")
	}
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2 {
		t.Errorf("median(4,1,3,2) = %v, want the lower middle 2", got)
	}
	if !reflect.DeepEqual(xs, []float64{4, 1, 3, 2}) {
		t.Errorf("median reordered its input: %v", xs)
	}
}

func TestOpenSampleTimesFromDueTime(t *testing.T) {
	ms := func(f float64) time.Duration { return time.Duration(f * float64(time.Millisecond)) }
	// Idle connection: the driver waited for the due time, sent 50µs late.
	idle := openSample{due: ms(10), pickup: ms(8), send: ms(10.05), done: ms(10.5)}
	if idle.latency() != ms(0.5) || idle.connWait() != 0 || idle.late() != ms(0.05) {
		t.Errorf("idle sample: latency %v connWait %v late %v", idle.latency(), idle.connWait(), idle.late())
	}
	// Both connections busy: the request waited 2ms past its due time, and
	// that wait counts in its latency but not in the generator's lateness.
	busy := openSample{due: ms(10), pickup: ms(12), send: ms(12.01), done: ms(12.5)}
	if busy.latency() != ms(2.5) || busy.connWait() != ms(2) || busy.late() != ms(0.01) {
		t.Errorf("busy sample: latency %v connWait %v late %v", busy.latency(), busy.connWait(), busy.late())
	}
	got := sortedMicros([]openSample{busy, idle}, openSample.latency)
	if !reflect.DeepEqual(got, []float64{500, 2500}) {
		t.Errorf("sortedMicros = %v, want [500 2500]", got)
	}
}

func mustScrape(t *testing.T, doc string) scrape {
	t.Helper()
	s, err := parseScrape(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestScrapeDeltaSumsReplicas(t *testing.T) {
	// Two replicas, scraped before and after a window, in the shape
	// obs.Registry.WriteJSON serves on /metrics.json.
	before := []scrape{
		mustScrape(t, `{"metrics":[{"name":"core_plan_compiles_total","kind":"counter","value":10},
			{"name":"serve_route_predict_seconds","kind":"histogram","sum_seconds":1.0,"count":100}]}`),
		mustScrape(t, `{"metrics":[{"name":"core_plan_compiles_total","kind":"counter","value":0}]}`),
	}
	after := []scrape{
		mustScrape(t, `{"metrics":[{"name":"core_plan_compiles_total","kind":"counter","value":15},
			{"name":"serve_route_predict_seconds","kind":"histogram","sum_seconds":1.004,"count":104}]}`),
		mustScrape(t, `{"metrics":[{"name":"core_plan_compiles_total","kind":"counter","value":7},
			{"name":"serve_route_predict_seconds","kind":"histogram","sum_seconds":0.002,"count":4}]}`),
	}
	d := delta{before, after}
	if got := d.value("core_plan_compiles_total"); got != 12 {
		t.Errorf("compiles delta = %d, want 5+7", got)
	}
	// (0.004 + 0.002) s over 8 observations = 750 µs.
	if got := d.meanUs("serve_route_predict_seconds"); math.Abs(got-750) > 1e-6 {
		t.Errorf("mean = %v µs, want 750", got)
	}
	if d.value("absent_total") != 0 || d.meanUs("absent_seconds") != 0 {
		t.Error("absent metrics should read 0")
	}
	if _, err := parseScrape(strings.NewReader("not json")); err == nil {
		t.Error("parseScrape accepted malformed input")
	}
}

func TestLedgerRemainder(t *testing.T) {
	l := ledger{e2e: 400, direct: 250, handler: 100, inner: 90}
	if l.overhead() != 150 || l.http() != 150 || l.unexplained() != 10 {
		t.Errorf("overhead %v http %v unexplained %v, want 150 150 10", l.overhead(), l.http(), l.unexplained())
	}
	// The layers add up to the end-to-end mean by construction.
	if got := l.overhead() + l.http() + l.inner + l.unexplained(); got != l.e2e {
		t.Errorf("layers sum to %v, want %v", got, l.e2e)
	}
}

func TestBenchmarkJSONMatchesMetricTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit || got[i].Better != want[i].better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the benchmark %+v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}

func TestNovelSpecsAreSeededValidAndDistinct(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 200; i++ {
		s := genSpec(7, i)
		if !reflect.DeepEqual(s, genSpec(7, i)) {
			t.Fatalf("spec %d differs between two draws of the same seed", i)
		}
		if blocks := len(s.Layers) / 3; blocks < 6 || blocks > 20 {
			t.Errorf("spec %d has %d blocks, want 6 to 20", i, blocks)
		}
		if _, err := s.network(); err != nil {
			t.Fatalf("spec %d does not build: %v", i, err)
		}
		body := string(novelBody(7, i))
		if seen[body] {
			t.Fatalf("spec %d repeats an earlier body", i)
		}
		seen[body] = true
	}
	if reflect.DeepEqual(genSpec(7, 0), genSpec(8, 0)) {
		t.Error("different seeds drew the same first spec")
	}
}

func TestArrivalScheduleIsSeededAndBounded(t *testing.T) {
	a, err := arrivalSchedule(1000, 3, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := arrivalSchedule(1000, 3, time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave two schedules")
	}
	if len(a) < 900 || len(a) > 1100 {
		t.Errorf("%d arrivals in 1s at 1000/s", len(a))
	}
	for i := 1; i < len(a); i++ {
		if a[i] <= a[i-1] || a[i] >= time.Second {
			t.Fatalf("arrival %d at %v after %v", i, a[i], a[i-1])
		}
	}
}
