package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"strconv"
	"testing"

	"repro/internal/fleetsim"
	"repro/internal/loadgen"
)

// capacitySweepDigest pins the capacity grid's answers on the quick-lab
// fleet oracle, recorded by running TestCapacitySweepDigest's body before
// the annealing proposal loop and the replay's quantile summary were made
// cheaper. The fleetsim tests pin only synthetic step tables; this is the
// model-driven one the capacity-plan workload replays against.
const capacitySweepDigest = "2c6a6b17e5133a66548c5bd1b6d2a56db2cb8162db3ca67231e41e0f4f72cf30"

// capacityGrid is the capacity-plan workload's grid (perfbench/offline.go):
// fleets of 2, 4 and 8 GPUs × 20, 40 and 80 requests/s × jsq, lpt and
// search dispatch, 2,000 Poisson requests per cell, batches up to 8 and
// 200 µs post-processing.
func capacityGrid(seed int64) []fleetsim.Scenario {
	base := fleetsim.Scenario{
		Arrival:   loadgen.Poisson,
		Requests:  2000,
		MaxBatch:  8,
		PostProcS: 200e-6,
		Seed:      seed,
	}
	return fleetsim.Grid(base, []int{2, 4, 8}, []float64{20, 40, 80}, []string{"jsq", "lpt", "search"})
}

// capacityStepTable compiles the quick-lab FleetOracle into the step table
// the capacity grid replays against.
func capacityStepTable(tb testing.TB) *fleetsim.StepTable {
	tb.Helper()
	models, nets, err := FleetOracle(quickLab(tb))
	if err != nil {
		tb.Fatal(err)
	}
	st, err := fleetsim.BuildStepTable(models, nets, 8)
	if err != nil {
		tb.Fatal(err)
	}
	return st
}

// TestCapacitySweepDigest sweeps the capacity grid at seeds 3 and 11 and
// hashes the JSON of both result sets, at one and at four workers.
func TestCapacitySweepDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick-lab collection")
	}
	st := capacityStepTable(t)
	for _, workers := range []int{1, 4} {
		t.Run("workers="+strconv.Itoa(workers), func(t *testing.T) {
			h := sha256.New()
			for _, seed := range []int64{3, 11} {
				results, err := fleetsim.Sweep(st, capacityGrid(seed), workers)
				if err != nil {
					t.Fatal(err)
				}
				b, err := json.Marshal(results)
				if err != nil {
					t.Fatal(err)
				}
				h.Write(b)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != capacitySweepDigest {
				t.Fatalf("capacity sweep digest = %s, want %s", got, capacitySweepDigest)
			}
		})
	}
}

// BenchmarkCapacitySweep times one capacity-plan op: a one-worker Sweep of
// the capacity grid over the quick-lab oracle. A diagnostic, not a gate.
func BenchmarkCapacitySweep(b *testing.B) {
	st := capacityStepTable(b)
	grid := capacityGrid(3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := fleetsim.Sweep(st, grid, 1)
		if err != nil {
			b.Fatal(err)
		}
		capacitySink = res
	}
}

var capacitySink []fleetsim.ScenarioResult
