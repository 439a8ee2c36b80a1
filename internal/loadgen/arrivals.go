package loadgen

import (
	"fmt"
	"math"
	"time"

	"repro/internal/rng"
)

// Arrival processes as deterministic simulated-time generators. The HTTP
// load generator and the fleet simulator share these: both need "when does
// the next request arrive" as a pure function of (schedule, seed), the
// first to pace wall-clock dispatch, the second to stamp a replayable
// trace. Times are absolute seconds from the process origin and strictly
// increase; the same (schedule, parameters, seed) always yields the same
// sequence on every platform, which is what makes fleet-simulation results
// bit-identical across runs.
//
// Open-loop schedules (arrivals do not wait for responses):
//
//   - PoissonArrivals: homogeneous Poisson at a fixed rate — exponential
//     inter-arrival gaps, the standard memoryless open-loop model.
//   - BurstyArrivals: an on/off modulated Poisson process: bursts of 4×
//     the rate for 200 ms alternate with 200 ms at a quarter of it, so the
//     time-average rate is rate·(4 + 1/4)/2.
//   - DiurnalArrivals: a nonhomogeneous Poisson process whose rate follows
//     a sinusoid, rate(t) = base·(1 + 0.5·sin(2πt/period)) — the day/night
//     cycle capacity planning must survive. Sampled by thinning (Lewis &
//     Shedler): candidates at the peak rate, each kept with probability
//     rate(t)/peak, which preserves exactness for any bounded rate curve.
//
// The closed-loop counterpart is Think: closed-loop users do not follow a
// time schedule — each issues its next request one think time after the
// previous response — so the generator is an exponential think-time
// sampler the simulator consults at every completion.

// Process generates one arrival schedule: successive calls to Next return
// strictly increasing absolute arrival times in seconds. Implementations
// are deterministic in their seed and not safe for concurrent use (each
// goroutine takes its own instance).
type Process interface {
	// Name identifies the schedule in reports and JSON summaries.
	Name() string
	// Next returns the next arrival time in seconds from the origin.
	Next() float64
}

// expGap draws an exponential inter-arrival gap at the given rate:
// −ln(1−U)/rate with U uniform in [0,1), so the argument stays in (0,1].
func expGap(r *rng.Stream, rate float64) float64 {
	return -math.Log(1-r.Float64()) / rate
}

// PoissonArrivals is the homogeneous Poisson process.
type PoissonArrivals struct {
	rate float64
	t    float64
	rng  rng.Stream
}

// NewPoissonArrivals returns a Poisson process at rate arrivals/second.
func NewPoissonArrivals(rate float64, seed int64) *PoissonArrivals {
	return &PoissonArrivals{rate: rate, rng: rng.New(uint64(seed))}
}

// Name implements Process.
func (p *PoissonArrivals) Name() string { return string(Poisson) }

// Next implements Process.
func (p *PoissonArrivals) Next() float64 {
	p.t += expGap(&p.rng, p.rate)
	return p.t
}

// The bursty and diurnal shapes: bursts of burstFactor× the rate for
// burstOnS seconds alternate with burstOffS seconds at 1/burstFactor of it;
// the diurnal rate swings ±diurnalAmplitude around its base.
const (
	burstFactor      = 4
	burstOnS         = 0.2
	burstOffS        = 0.2
	diurnalAmplitude = 0.5
)

// BurstyArrivals is the on/off modulated Poisson process. The process
// starts in the on phase; each gap is drawn at the rate of the phase the
// previous arrival fell in, matching the wall-clock generator's behavior
// (phase boundaries do not re-draw an in-flight gap).
type BurstyArrivals struct {
	rate        float64
	t, phaseEnd float64
	inBurst     bool
	rng         rng.Stream
}

// NewBurstyArrivals returns a bursty process around rate arrivals/second.
func NewBurstyArrivals(rate float64, seed int64) *BurstyArrivals {
	return &BurstyArrivals{rate: rate, phaseEnd: burstOnS, inBurst: true, rng: rng.New(uint64(seed))}
}

// Name implements Process.
func (p *BurstyArrivals) Name() string { return string(Bursty) }

// Next implements Process.
func (p *BurstyArrivals) Next() float64 {
	for p.t >= p.phaseEnd {
		if p.inBurst {
			p.inBurst = false
			p.phaseEnd += burstOffS
		} else {
			p.inBurst = true
			p.phaseEnd += burstOnS
		}
	}
	rate := p.rate / burstFactor
	if p.inBurst {
		rate = p.rate * burstFactor
	}
	p.t += expGap(&p.rng, rate)
	return p.t
}

// DiurnalArrivals is the sinusoidally modulated Poisson process,
// rate(t) = base·(1 + diurnalAmplitude·sin(2πt/period)).
type DiurnalArrivals struct {
	base, period float64
	t            float64
	rng          rng.Stream
}

// NewDiurnalArrivals returns a diurnal process around base arrivals/second
// with a cycle of periodS seconds. A non-positive period means one day
// (86400 s), as ArrivalsConfig documents; a zero period would make every
// rate NaN and thinning would never accept a candidate.
func NewDiurnalArrivals(base, periodS float64, seed int64) *DiurnalArrivals {
	if periodS <= 0 {
		periodS = 86400
	}
	return &DiurnalArrivals{base: base, period: periodS, rng: rng.New(uint64(seed))}
}

// Name implements Process.
func (p *DiurnalArrivals) Name() string { return string(Diurnal) }

// Rate returns the instantaneous rate at time t seconds.
func (p *DiurnalArrivals) Rate(t float64) float64 {
	return p.base * (1 + diurnalAmplitude*math.Sin(2*math.Pi*t/p.period))
}

// Next implements Process by thinning at the peak rate
// base·(1+diurnalAmplitude).
func (p *DiurnalArrivals) Next() float64 {
	peak := p.base * (1 + diurnalAmplitude)
	for {
		p.t += expGap(&p.rng, peak)
		if p.rng.Float64()*peak <= p.Rate(p.t) {
			return p.t
		}
	}
}

// Think samples closed-loop think times: the seconds a virtual user waits
// between receiving a response and issuing the next request, exponentially
// distributed with the given mean (memoryless users, the M in M/G/k).
type Think struct {
	mean float64
	rng  rng.Stream
}

// NewThink returns a think-time sampler with the given mean in seconds.
func NewThink(meanS float64, seed int64) *Think {
	return &Think{mean: meanS, rng: rng.New(uint64(seed))}
}

// Sample returns one think time in seconds. A non-positive mean always
// returns 0 (users re-issue immediately — the peak-throughput probe).
func (t *Think) Sample() float64 {
	if t.mean <= 0 {
		return 0
	}
	return expGap(&t.rng, 1/t.mean)
}

// ArrivalsConfig parameterizes NewArrivals, the factory mapping an Arrival
// schedule name onto a Process.
type ArrivalsConfig struct {
	// Rate is the mean arrival rate in requests/second (the base rate for
	// Diurnal).
	Rate float64
	// Seed seeds the process randomness.
	Seed int64
	// DiurnalPeriod is the Diurnal cycle; zero means one day.
	DiurnalPeriod time.Duration
}

// NewArrivals builds the open-loop Process for a schedule. Closed is not an
// open-loop schedule (its arrivals are completion-triggered, see Think) and
// returns an error.
func NewArrivals(a Arrival, cfg ArrivalsConfig) (Process, error) {
	if cfg.Rate <= 0 {
		return nil, fmt.Errorf("loadgen: %s schedule needs Rate > 0", a)
	}
	switch a {
	case Poisson:
		return NewPoissonArrivals(cfg.Rate, cfg.Seed), nil
	case Bursty:
		return NewBurstyArrivals(cfg.Rate, cfg.Seed), nil
	case Diurnal:
		return NewDiurnalArrivals(cfg.Rate, cfg.DiurnalPeriod.Seconds(), cfg.Seed), nil
	case Closed:
		return nil, fmt.Errorf("loadgen: %s is completion-triggered, not an open-loop schedule (use Think)", a)
	}
	return nil, fmt.Errorf("loadgen: unknown arrival schedule %q", a)
}
