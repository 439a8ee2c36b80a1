package loadgen

import (
	"math"
	"testing"
	"time"
)

// meanGap generates n arrivals and returns the mean inter-arrival gap.
func meanGap(p Process, n int) float64 {
	var last, t float64
	for i := 0; i < n; i++ {
		t = p.Next()
		if t <= last {
			panic("arrival times must strictly increase")
		}
		last = t
	}
	return t / float64(n)
}

// TestPoissonArrivalsMean pins the empirical mean inter-arrival gap of the
// Poisson process to its analytic value 1/rate. 200k samples put the
// standard error of the mean near 0.22% (exponential cv = 1), so a 1%
// tolerance is ~4.5σ and the seeded sequence sits comfortably inside it.
func TestPoissonArrivalsMean(t *testing.T) {
	const rate = 1000.0
	got := meanGap(NewPoissonArrivals(rate, 42), 200_000)
	want := 1 / rate
	if math.Abs(got-want)/want > 0.01 {
		t.Fatalf("mean gap = %g, want %g ±1%%", got, want)
	}
}

// TestBurstyArrivalsMean checks the time-average rate of the on/off
// process against its analytic value: with equal on/off windows the mean
// rate is rate·(f + 1/f)/2, since half the time runs at rate·f and half at
// rate/f (both phase gap scales are far below the 200ms window at these
// parameters, so boundary spillover is negligible).
func TestBurstyArrivalsMean(t *testing.T) {
	const rate, factor = 1000.0, float64(burstFactor)
	p := NewBurstyArrivals(rate, 7)
	const n = 400_000
	var last float64
	for i := 0; i < n; i++ {
		last = p.Next()
	}
	gotRate := float64(n) / last
	wantRate := rate * (factor + 1/factor) / 2
	if math.Abs(gotRate-wantRate)/wantRate > 0.03 {
		t.Fatalf("mean rate = %g, want %g ±3%%", gotRate, wantRate)
	}
}

// TestDiurnalArrivalsMean checks that thinning preserves the analytic mean:
// over whole periods the sinusoid integrates to zero, so the expected count
// in k·period seconds is base·k·period. It also checks the modulation is
// real — the rising half-period must hold more arrivals than the falling
// one (amp 0.5 makes the analytic ratio (1+2·amp/π)/(1−2·amp/π) ≈ 1.93).
func TestDiurnalArrivalsMean(t *testing.T) {
	const base, amp, period = 2000.0, diurnalAmplitude, 10.0
	p := NewDiurnalArrivals(base, period, 11)
	const horizon = 100.0 // 10 full periods
	var count, firstHalf, secondHalf int
	for {
		at := p.Next()
		if at > horizon {
			break
		}
		count++
		if phase := math.Mod(at, period); phase < period/2 {
			firstHalf++
		} else {
			secondHalf++
		}
	}
	want := base * horizon
	if math.Abs(float64(count)-want)/want > 0.02 {
		t.Fatalf("arrivals in %v s = %d, want %g ±2%%", horizon, count, want)
	}
	ratio := float64(firstHalf) / float64(secondHalf)
	wantRatio := (1 + 2*amp/math.Pi) / (1 - 2*amp/math.Pi)
	if math.Abs(ratio-wantRatio)/wantRatio > 0.05 {
		t.Fatalf("half-period ratio = %g, want %g ±5%%", ratio, wantRatio)
	}
}

// TestThinkMean pins the closed-loop think-time sampler to its analytic
// mean, and the zero-mean fast path to exactly zero.
func TestThinkMean(t *testing.T) {
	const mean = 0.25
	th := NewThink(mean, 5)
	var sum float64
	const n = 200_000
	for i := 0; i < n; i++ {
		sum += th.Sample()
	}
	got := sum / n
	if math.Abs(got-mean)/mean > 0.01 {
		t.Fatalf("mean think = %g, want %g ±1%%", got, mean)
	}
	zero := NewThink(0, 5)
	if v := zero.Sample(); v != 0 {
		t.Fatalf("zero-mean think sampled %g, want 0", v)
	}
}

// TestArrivalsDeterministic pins that the same (schedule, seed) yields the
// same sequence and a different seed a different one — the property the
// fleet simulator's bit-identical replays rest on.
func TestArrivalsDeterministic(t *testing.T) {
	cfg := ArrivalsConfig{Rate: 500, Seed: 9, DiurnalPeriod: time.Minute}
	for _, schedule := range []Arrival{Poisson, Bursty, Diurnal} {
		a, err := NewArrivals(schedule, cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewArrivals(schedule, cfg)
		if err != nil {
			t.Fatal(err)
		}
		other, err := NewArrivals(schedule, ArrivalsConfig{Rate: 500, Seed: 10, DiurnalPeriod: time.Minute})
		if err != nil {
			t.Fatal(err)
		}
		var diverged bool
		for i := 0; i < 1000; i++ {
			av, bv := a.Next(), b.Next()
			if av != bv {
				t.Fatalf("%s: arrival %d differs for the same seed: %g vs %g", schedule, i, av, bv)
			}
			if av != other.Next() {
				diverged = true
			}
		}
		if !diverged {
			t.Errorf("%s: seeds 9 and 10 produced identical sequences", schedule)
		}
	}
}

// TestNewArrivalsContract pins the factory's error paths: Closed is not an
// open-loop schedule, and a non-positive rate is rejected.
func TestNewArrivalsContract(t *testing.T) {
	if _, err := NewArrivals(Closed, ArrivalsConfig{Rate: 100}); err == nil {
		t.Error("NewArrivals(Closed) succeeded, want error")
	}
	if _, err := NewArrivals(Poisson, ArrivalsConfig{Rate: 0}); err == nil {
		t.Error("NewArrivals with rate 0 succeeded, want error")
	}
	if _, err := ParseArrival("diurnal"); err != nil {
		t.Errorf("ParseArrival(diurnal): %v", err)
	}
}
