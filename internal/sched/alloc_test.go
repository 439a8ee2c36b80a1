package sched

import (
	"runtime"
	"testing"

	"repro/internal/rng"
)

// TestMoveEvalAllocFree pins the //dnnperf:allocfree contract of the
// incremental hot path: evaluating and applying moves/swaps in steady
// state allocates nothing.
func TestMoveEvalAllocFree(t *testing.T) {
	dt := Synthetic(2000, 8, 3)
	draw := rng.New(9)
	s := randomState(dt, &draw)
	allocs := testing.AllocsPerRun(1000, func() {
		i := draw.Intn(s.n)
		to := int32(draw.Intn(s.g - 1))
		if to >= s.gpuOf[i] {
			to++
		}
		_ = s.evalMove(i, to)
		j := draw.Intn(s.n)
		if s.gpuOf[i] != s.gpuOf[j] {
			if s.evalSwap(i, j) < 2*s.span {
				s.applySwap(i, j) // swap application is list-append-free
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state move evaluation allocated %.2f objects per round, want 0", allocs)
	}
}

// One Schedule of Synthetic(100_000, 8, 42) at seed 42, the instance
// BenchmarkScheduleLocalSearch times, may allocate at most this many
// objects and bytes. The search allocates its tables once per restart, so
// a per-move allocation or an extra per-task table (a task-major copy of
// the times is 6.1 MiB) exceeds it. On go1.24/amd64 the search allocates
// 100–111 objects and 10.46 MiB.
const (
	scheduleAllocCeiling    = 128
	scheduleAllocCeilingMiB = 12
)

// TestScheduleAllocCeiling measures one Schedule by its runtime.MemStats
// Mallocs and TotalAlloc deltas.
func TestScheduleAllocCeiling(t *testing.T) {
	dt := Synthetic(100_000, 8, 42)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Schedule(dt, SearchOptions{Seed: 42}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	allocs := after.Mallocs - before.Mallocs
	mib := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	t.Logf("Schedule allocated %d objects, %.2f MiB", allocs, mib)
	if allocs > scheduleAllocCeiling || mib > scheduleAllocCeilingMiB {
		t.Fatalf("Schedule allocated %d objects and %.2f MiB, above the ceiling of %d objects and %d MiB",
			allocs, mib, scheduleAllocCeiling, scheduleAllocCeilingMiB)
	}
}
