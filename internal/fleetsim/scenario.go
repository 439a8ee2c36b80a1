package fleetsim

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/loadgen"
	"repro/internal/sched"
)

// Scenario is one declarative simulation: a fleet, an arrival workload and
// a dispatch policy. It is the unit capacity sweeps fan out over.
type Scenario struct {
	Name string `json:"name"`

	// Fleet gives each replica's GPU type id explicitly; when nil,
	// FleetSize replicas are used, GPU types assigned round-robin across
	// the step table's fleet.
	Fleet     []int32 `json:"fleet,omitempty"`
	FleetSize int     `json:"fleet_size,omitempty"`

	// Open-loop workload: Requests arrivals drawn from the loadgen
	// Arrival schedule at RateRPS, bursty and diurnal in loadgen's shapes
	// (a diurnal cycle lasts one simulated day). Closed-loop workload
	// (Users > 0, which Arrival closed requires): Users virtual users with
	// ThinkMeanS think time over HorizonS simulated seconds
	// (Requests/RateRPS ignored).
	Arrival    loadgen.Arrival `json:"arrival"`
	RateRPS    float64         `json:"rate_rps,omitempty"`
	Requests   int             `json:"requests,omitempty"`
	Users      int             `json:"users,omitempty"`
	ThinkMeanS float64         `json:"think_mean_s,omitempty"`
	HorizonS   float64         `json:"horizon_s,omitempty"`

	// Policy is the dispatch rule: "jsq", "rr", or a sched policy name
	// ("lpt", "inorder", "search") applied to the whole trace up front and
	// replayed via RoutePlanned. Empty means "jsq".
	Policy string `json:"policy"`

	MaxBatch  int     `json:"max_batch,omitempty"`
	PostProcS float64 `json:"post_proc_s,omitempty"`
	Seed      int64   `json:"seed"`

	// RecordTimeline keeps per-batch spans for Perfetto export (see
	// Sim.Timeline); it allocates during replay, so sweeps leave it off.
	RecordTimeline bool `json:"-"`
}

// ScenarioResult pairs a scenario with its replay summary.
type ScenarioResult struct {
	Scenario Scenario `json:"scenario"`
	Result   Result   `json:"result"`
}

// ParsePolicy resolves a scenario policy name to either an online router
// or a sched.Policy for planned routing; exactly one return is meaningful.
func ParsePolicy(name string) (RouterKind, sched.Policy, error) {
	switch name {
	case "", "jsq":
		return RouteJSQ, nil, nil
	case "rr":
		return RouteRR, nil, nil
	case "lpt":
		return RoutePlanned, sched.ListPolicy{}, nil
	case "inorder":
		return RoutePlanned, sched.InOrderPolicy{}, nil
	case "search":
		return RoutePlanned, sched.SearchPolicy{}, nil
	default:
		return RouteJSQ, nil, fmt.Errorf("fleetsim: unknown policy %q (want jsq, rr, lpt, inorder or search)", name)
	}
}

// fleetOf materializes the scenario's replica list; FleetSize spreads the
// table's nTypes GPU types round-robin.
func (sc *Scenario) fleetOf(nTypes int) ([]int32, error) {
	if len(sc.Fleet) > 0 {
		return sc.Fleet, nil
	}
	if sc.FleetSize <= 0 {
		return nil, fmt.Errorf("fleetsim: scenario %q has no fleet", sc.Name)
	}
	fleet := make([]int32, sc.FleetSize)
	for i := range fleet {
		fleet[i] = int32(i % nTypes)
	}
	return fleet, nil
}

// Build compiles a scenario into a ready-to-replay Sim against the given
// step table. The trace (open loop) and any planned assignment are derived
// deterministically from the scenario's seed.
func (sc *Scenario) Build(st *StepTable) (*Sim, error) {
	return sc.build(st, PlanRoute)
}

// planFunc computes a planned route; PlanRoute itself, or a Sweep's
// planMemo in front of it.
type planFunc func(st *StepTable, fleet []int32, tr *Trace, pol sched.Policy) ([]int32, error)

func (sc *Scenario) build(st *StepTable, plan planFunc) (*Sim, error) {
	fleet, err := sc.fleetOf(len(st.gpus))
	if err != nil {
		return nil, err
	}
	router, pol, err := ParsePolicy(sc.Policy)
	if err != nil {
		return nil, err
	}
	cfg := Config{
		Fleet:          fleet,
		MaxBatch:       sc.MaxBatch,
		PostProcS:      sc.PostProcS,
		Router:         router,
		Seed:           sc.Seed,
		RecordTimeline: sc.RecordTimeline,
	}

	if sc.Users > 0 || sc.Arrival == loadgen.Closed {
		if sc.Users <= 0 {
			return nil, fmt.Errorf("fleetsim: scenario %q: closed-loop arrival needs Users > 0", sc.Name)
		}
		if pol != nil {
			return nil, fmt.Errorf("fleetsim: scenario %q: planned policies need an open-loop trace", sc.Name)
		}
		cfg.Users = sc.Users
		cfg.ThinkMeanS = sc.ThinkMeanS
		cfg.HorizonS = sc.HorizonS
		return NewSim(st, cfg, nil)
	}

	if sc.Requests <= 0 {
		return nil, fmt.Errorf("fleetsim: scenario %q needs Requests > 0", sc.Name)
	}
	arrival := sc.Arrival
	if arrival == "" {
		arrival = loadgen.Poisson
	}
	proc, err := loadgen.NewArrivals(arrival, loadgen.ArrivalsConfig{Rate: sc.RateRPS, Seed: sc.Seed})
	if err != nil {
		return nil, fmt.Errorf("fleetsim: scenario %q: %w", sc.Name, err)
	}
	tr, err := BuildTrace(proc, len(st.nets), sc.Requests, sc.Seed+0x5eed)
	if err != nil {
		return nil, err
	}
	if pol != nil {
		planned, err := plan(st, fleet, tr, pol)
		if err != nil {
			return nil, err
		}
		cfg.Planned = planned
	}
	return NewSim(st, cfg, tr)
}

// Run builds and replays a scenario once.
func (sc *Scenario) Run(st *StepTable) (Result, error) {
	return sc.run(st, PlanRoute)
}

func (sc *Scenario) run(st *StepTable, plan planFunc) (Result, error) {
	sim, err := sc.build(st, plan)
	if err != nil {
		return Result{}, err
	}
	res := sim.Replay()
	// Detach the Sim-owned buffers so results survive the worker pool.
	res.Util = append([]float64(nil), res.Util...)
	res.MaxQueueDepth = append([]int32(nil), res.MaxQueueDepth...)
	return res, nil
}

// Sweep replays every scenario across a bounded worker pool and merges the
// results into indexed slots, so output order matches input order and the
// first failing scenario in input order wins error reporting — the same
// deterministic fan-out discipline as core.PredictGrid. workers ≤ 0
// defaults to GOMAXPROCS.
//
// Planned routes are solved once per distinct (policy, fleet, request
// network sequence) within the call: PlanRoute never reads arrival times,
// so grid cells that differ only in rate pose the same scheduling problem
// and share one read-only assignment. Results equal each scenario's own
// Run bit for bit.
func Sweep(st *StepTable, scenarios []Scenario, workers int) ([]ScenarioResult, error) {
	if len(scenarios) == 0 {
		return nil, fmt.Errorf("fleetsim: empty sweep")
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(scenarios) {
		workers = len(scenarios)
	}
	memo := planMemo{plans: make(map[planKey]*memoPlan)}
	out := make([]ScenarioResult, len(scenarios))
	errs := make([]error, len(scenarios))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				res, err := scenarios[i].run(st, memo.plan)
				if err != nil {
					errs[i] = err
					continue
				}
				out[i] = ScenarioResult{Scenario: scenarios[i], Result: res}
			}
		}()
	}
	for i := range scenarios {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// planKey identifies one scheduling problem by value: the policy name and
// the little-endian bytes of the fleet's GPU types and of the trace's
// network sequence, so a map hit compares both sequences in full.
type planKey struct {
	policy, fleet, nets string
}

// memoPlan is one key's route, computed by the first worker to ask.
type memoPlan struct {
	once    sync.Once
	planned []int32
	err     error
}

// planMemo is a planFunc that solves each planKey once; it lives for one
// Sweep call.
type planMemo struct {
	mu    sync.Mutex
	plans map[planKey]*memoPlan
}

func (m *planMemo) plan(st *StepTable, fleet []int32, tr *Trace, pol sched.Policy) ([]int32, error) {
	// Arrival times are outside the key, so validate them per cell before
	// the lookup: a stored error must then follow from the key alone.
	if err := tr.Validate(len(st.nets)); err != nil {
		return nil, err
	}
	key := planKey{policy: pol.Name(), fleet: int32Bytes(fleet), nets: int32Bytes(tr.Net)}
	m.mu.Lock()
	p, ok := m.plans[key]
	if !ok {
		p = &memoPlan{}
		m.plans[key] = p
	}
	m.mu.Unlock()
	p.once.Do(func() { p.planned, p.err = PlanRoute(st, fleet, tr, pol) })
	return p.planned, p.err
}

// int32Bytes encodes xs as a string of little-endian words.
func int32Bytes(xs []int32) string {
	b := make([]byte, 0, 4*len(xs))
	for _, x := range xs {
		b = binary.LittleEndian.AppendUint32(b, uint32(x))
	}
	return string(b)
}

// Grid expands a capacity-planning sweep: the cross product of fleet
// sizes × arrival rates × policies over a base scenario, named
// "f<size>-r<rate>-<policy>". The base's Fleet/FleetSize/RateRPS/Policy
// are overridden per cell.
func Grid(base Scenario, fleetSizes []int, rates []float64, policies []string) []Scenario {
	out := make([]Scenario, 0, len(fleetSizes)*len(rates)*len(policies))
	for _, fs := range fleetSizes {
		for _, rate := range rates {
			for _, pol := range policies {
				sc := base
				sc.Fleet = nil
				sc.FleetSize = fs
				sc.RateRPS = rate
				sc.Policy = pol
				sc.Name = fmt.Sprintf("f%d-r%g-%s", fs, rate, pol)
				out = append(out, sc)
			}
		}
	}
	return out
}

// MinFleetForP99 returns, per (rate, policy) cell of the sweep results, the
// smallest fleet size whose p99 meets the target with every request
// served, or -1 if none did — the capacity-planning answer. The results
// may come in any order.
func MinFleetForP99(results []ScenarioResult, targetS float64) map[string]int {
	out := make(map[string]int)
	for _, r := range results {
		key := fmt.Sprintf("r%g-%s", r.Scenario.RateRPS, r.Scenario.Policy)
		best, seen := out[key]
		if r.Result.P99S <= targetS && r.Result.Unfinished == 0 {
			if !seen || best < 0 || r.Scenario.FleetSize < best {
				out[key] = r.Scenario.FleetSize
			}
		} else if !seen {
			out[key] = -1
		}
	}
	return out
}
