package fleetsim

import (
	"fmt"

	"repro/internal/loadgen"
	"repro/internal/rng"
)

// Trace is a replayable open-loop request trace: request i arrives at
// ArrivalS[i] simulated seconds asking for network Net[i]. Arrival times
// strictly increase; a trace is immutable during replay and safe to share
// across concurrent scenario workers.
type Trace struct {
	ArrivalS []float64
	Net      []int32
}

// Len returns the request count.
func (tr *Trace) Len() int { return len(tr.ArrivalS) }

// Validate checks the trace invariants replay relies on.
func (tr *Trace) Validate(nNets int) error {
	if len(tr.ArrivalS) == 0 {
		return fmt.Errorf("fleetsim: empty trace")
	}
	if len(tr.Net) != len(tr.ArrivalS) {
		return fmt.Errorf("fleetsim: %d arrival times but %d networks", len(tr.ArrivalS), len(tr.Net))
	}
	prev := -1.0
	for i, at := range tr.ArrivalS {
		if !(at >= 0) || at <= prev {
			return fmt.Errorf("fleetsim: arrival %d at %v is not strictly after %v", i, at, prev)
		}
		prev = at
		if n := tr.Net[i]; n < 0 || int(n) >= nNets {
			return fmt.Errorf("fleetsim: request %d references network %d of %d", i, n, nNets)
		}
	}
	return nil
}

// BuildTrace stamps n arrivals from a loadgen arrival process and draws
// each request's network uniformly from nNets with a seeded rng.Stream —
// the trace source for open-loop replay. Deterministic in (process state,
// nNets, n, mixSeed).
func BuildTrace(proc loadgen.Process, nNets, n int, mixSeed int64) (*Trace, error) {
	if n <= 0 {
		return nil, fmt.Errorf("fleetsim: trace length %d must be positive", n)
	}
	if nNets <= 0 {
		return nil, fmt.Errorf("fleetsim: trace needs at least one network")
	}
	tr := &Trace{
		ArrivalS: make([]float64, n),
		Net:      make([]int32, n),
	}
	mix := rng.New(uint64(mixSeed))
	for i := 0; i < n; i++ {
		tr.ArrivalS[i] = proc.Next()
		tr.Net[i] = int32(mix.Intn(nNets))
	}
	return tr, nil
}
