package sched

import (
	"testing"

	"repro/internal/rng"
)

// BenchmarkScheduleLocalSearch is the gated end-to-end search benchmark:
// one full Schedule pipeline (mins, lower bound, construction, 4-restart
// anneal + descent) over a 10⁵-task × 8-GPU instance.
func BenchmarkScheduleLocalSearch(b *testing.B) {
	dt := Synthetic(100_000, 8, 42)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Schedule(dt, SearchOptions{Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		if res.Gap > 0.10 {
			b.Fatalf("gap %v above budget", res.Gap)
		}
	}
}

// BenchmarkScheduleMoveEval is the 0 allocs/op gate on the incremental
// move-evaluation hot path: each op evaluates a move and a swap and applies
// the swap — all annotated //dnnperf:allocfree, all O(1).
func BenchmarkScheduleMoveEval(b *testing.B) {
	dt := Synthetic(10_000, 8, 5)
	draw := rng.New(5)
	s := randomState(dt, &draw)
	b.ReportAllocs()
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		i := draw.Intn(s.n)
		to := int32(draw.Intn(s.g - 1))
		if to >= s.gpuOf[i] {
			to++
		}
		_ = s.evalMove(i, to)
		j := draw.Intn(s.n)
		if s.gpuOf[i] != s.gpuOf[j] {
			if s.evalSwap(i, j) < 2*s.span {
				s.applySwap(i, j)
			}
		}
	}
}

// BenchmarkListSchedule isolates Schedule's construction heuristic (the
// searchLookahead window) at the same scale as the search benchmark.
func BenchmarkListSchedule(b *testing.B) {
	dt := Synthetic(100_000, 8, 11)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		listSchedule(dt, taskMins(dt), searchLookahead)
	}
}

// BenchmarkLowerBound isolates the certified-bound computation (taskMins,
// Lagrangian ascent, exclusion bisection).
func BenchmarkLowerBound(b *testing.B) {
	dt := Synthetic(100_000, 8, 13)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LowerBound(dt); err != nil {
			b.Fatal(err)
		}
	}
}
