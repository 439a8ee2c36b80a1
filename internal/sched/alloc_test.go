package sched

import (
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
