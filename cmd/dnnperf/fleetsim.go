package main

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/fleetsim"
	"repro/internal/loadgen"
	"repro/internal/obs"
)

// The fleetsim subcommand replays request traffic against a simulated GPU
// fleet whose step times come from the compiled prediction plans (or, by
// default, a seeded synthetic oracle so smoke runs take milliseconds). One
// scenario prints a latency/utilization summary; the sweep flags fan a
// (fleet size × rate × policy) grid across worker goroutines and answer
// the capacity question ("smallest fleet meeting the p99 target") per
// cell. With -o, the per-batch timeline of the single-run scenario is
// written as a Perfetto-loadable Chrome trace, one track per replica.

// fleetsimFlags carries the subcommand's knobs from main.
type fleetsimFlags struct {
	fleetSize int
	requests  int
	maxBatch  int
	rate      float64
	arrival   string
	policy    string
	users     int
	think     time.Duration
	horizon   time.Duration
	post      time.Duration
	seed      int64
	cluster   bool
	quick     bool

	sweepFleet  string
	sweepRate   string
	sweepPolicy string
	p99Target   time.Duration

	timeline bool
}

// fleetsimSummary is the single-scenario JSON output.
type fleetsimSummary struct {
	Scenario        fleetsim.Scenario `json:"scenario"`
	GPUs            []string          `json:"gpus"`
	Result          fleetsim.Result   `json:"result"`
	ElapsedSeconds  float64           `json:"elapsed_s"`
	SimReqPerSec    float64           `json:"sim_requests_per_sec"`
	SimEventsPerSec float64           `json:"sim_events_per_sec"`
}

// fleetsimSweepSummary is the capacity-sweep JSON output.
type fleetsimSweepSummary struct {
	GPUs           []string                  `json:"gpus"`
	P99TargetS     float64                   `json:"p99_target_s"`
	Grid           []fleetsim.ScenarioResult `json:"grid"`
	MinFleetForP99 map[string]int            `json:"min_fleet_for_p99"`
	ElapsedSeconds float64                   `json:"elapsed_s"`
}

func runFleetsim(ff fleetsimFlags) error {
	if ff.maxBatch <= 0 {
		ff.maxBatch = 8
	}
	st, err := fleetsimTable(ff)
	if err != nil {
		return err
	}

	if ff.sweepFleet != "" || ff.sweepRate != "" || ff.sweepPolicy != "" {
		return runFleetsimSweep(ff, st)
	}

	sc := fleetsimScenario(ff, st, "fleetsim")
	sc.RecordTimeline = ff.timeline
	start := time.Now()
	sim, err := sc.Build(st)
	if err != nil {
		return err
	}
	res := sim.Replay()
	elapsed := time.Since(start).Seconds()
	if ff.timeline {
		exportFleetTimeline(st, sc.Fleet, sim.Timeline())
	}
	// Detach Sim-owned buffers before the Sim goes out of scope.
	res.Util = append([]float64(nil), res.Util...)
	res.MaxQueueDepth = append([]int32(nil), res.MaxQueueDepth...)
	return printJSON(fleetsimSummary{
		Scenario:        sc,
		GPUs:            fleetNames(st, sc.Fleet),
		Result:          res,
		ElapsedSeconds:  elapsed,
		SimReqPerSec:    float64(res.Requests) / elapsed,
		SimEventsPerSec: float64(res.Events) / elapsed,
	})
}

// fleetsimTable builds the step-time oracle: the model-driven cluster
// fleet under -cluster, a seeded synthetic fleet otherwise.
func fleetsimTable(ff fleetsimFlags) (*fleetsim.StepTable, error) {
	if !ff.cluster {
		return fleetsim.SyntheticStepTable(4, 8, max(ff.maxBatch, 8), ff.seed), nil
	}
	lab := bench.NewLab
	if ff.quick {
		lab = bench.NewQuickLab
	}
	sp := obs.StartPhase("fit fleet oracle")
	models, nets, err := bench.FleetOracle(lab())
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = obs.StartPhase("compile step table")
	defer sp.End()
	return fleetsim.BuildStepTable(models, nets, max(ff.maxBatch, 8))
}

// fleetsimScenario materializes the base scenario, spreading replica GPU
// types round-robin across the table's fleet for heterogeneity.
func fleetsimScenario(ff fleetsimFlags, st *fleetsim.StepTable, name string) fleetsim.Scenario {
	fleet := make([]int32, ff.fleetSize)
	for i := range fleet {
		fleet[i] = int32(i % len(st.GPUs()))
	}
	sc := fleetsim.Scenario{
		Name:      name,
		Fleet:     fleet,
		Arrival:   loadgen.Arrival(ff.arrival),
		RateRPS:   ff.rate,
		Requests:  ff.requests,
		MaxBatch:  ff.maxBatch,
		PostProcS: ff.post.Seconds(),
		Policy:    ff.policy,
		Seed:      ff.seed,
	}
	if ff.users > 0 || sc.Arrival == loadgen.Closed {
		sc.Users = ff.users
		sc.ThinkMeanS = ff.think.Seconds()
		sc.HorizonS = ff.horizon.Seconds()
	}
	return sc
}

func runFleetsimSweep(ff fleetsimFlags, st *fleetsim.StepTable) error {
	sizes, err := parseList(ff.sweepFleet, []int{ff.fleetSize}, strconv.Atoi)
	if err != nil {
		return fmt.Errorf("-sweep-fleet: %w", err)
	}
	rates, err := parseList(ff.sweepRate, []float64{ff.rate}, func(s string) (float64, error) {
		return strconv.ParseFloat(s, 64)
	})
	if err != nil {
		return fmt.Errorf("-sweep-rate: %w", err)
	}
	// The identity parse cannot fail; each cell's Build checks the names.
	policies, _ := parseList(ff.sweepPolicy, []string{ff.policy}, func(s string) (string, error) { return s, nil })
	base := fleetsimScenario(ff, st, "base")
	base.Fleet = nil // Grid sets FleetSize per cell; GPU types are spread round-robin
	grid := fleetsim.Grid(base, sizes, rates, policies)

	sp := obs.StartPhase("capacity sweep")
	start := time.Now()
	results, err := fleetsim.Sweep(st, grid, 0) // one worker per GOMAXPROCS
	elapsed := time.Since(start).Seconds()
	sp.End()
	if err != nil {
		return err
	}
	return printJSON(fleetsimSweepSummary{
		GPUs:           st.GPUs(),
		P99TargetS:     ff.p99Target.Seconds(),
		Grid:           results,
		MinFleetForP99: fleetsim.MinFleetForP99(results, ff.p99Target.Seconds()),
		ElapsedSeconds: elapsed,
	})
}

// exportFleetTimeline maps the simulated batch spans onto the Chrome
// tracer: one track per replica, one complete event per executed batch,
// simulated seconds mapped 1:1 onto trace nanoseconds-since-epoch.
func exportFleetTimeline(st *fleetsim.StepTable, fleet []int32, spans []fleetsim.BatchSpan) {
	tr := obs.CurrentTracer()
	if tr == nil {
		return
	}
	nets := st.Nets()
	tracks := make([]int64, len(fleet))
	for r := range tracks {
		tracks[r] = tr.ReserveTrack()
	}
	names := fleetNames(st, fleet)
	for _, s := range spans {
		tr.Complete(obs.TraceEvent{
			Name:  fmt.Sprintf("%s b%d", nets[s.Net], s.Size),
			Cat:   obs.TaskCat,
			Track: tracks[s.Replica],
			Start: time.Duration(s.StartS * float64(time.Second)),
			Dur:   time.Duration(s.DurS * float64(time.Second)),
			Args:  []obs.Arg{{Key: "replica", Val: names[s.Replica]}},
		})
	}
}

// fleetNames labels each replica "r<idx>:<gpu type>".
func fleetNames(st *fleetsim.StepTable, fleet []int32) []string {
	names := make([]string, len(fleet))
	for r, g := range fleet {
		names[r] = fmt.Sprintf("r%02d:%s", r, st.GPUs()[g])
	}
	return names
}

// parseList splits a comma-separated flag value and parses each trimmed
// item; an empty value yields def.
func parseList[T any](s string, def []T, parse func(string) (T, error)) ([]T, error) {
	if s == "" {
		return def, nil
	}
	parts := strings.Split(s, ",")
	out := make([]T, 0, len(parts))
	for _, p := range parts {
		v, err := parse(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
