package regression

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFitExactLine(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3*x + 7
	}
	line, err := Fit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(line.Slope-3) > 1e-12 || math.Abs(line.Intercept-7) > 1e-12 {
		t.Fatalf("Fit = %v", line)
	}
	if line.R2 != 1 {
		t.Fatalf("R² = %v, want 1", line.R2)
	}
	if line.N != 5 {
		t.Fatalf("N = %d", line.N)
	}
	if got := line.Predict(10); math.Abs(got-37) > 1e-12 {
		t.Fatalf("Predict(10) = %v", got)
	}
}

func TestFitNoisyLine(t *testing.T) {
	rnd := rand.New(rand.NewSource(42))
	var xs, ys []float64
	for i := 0; i < 2000; i++ {
		x := rnd.Float64() * 100
		xs = append(xs, x)
		ys = append(ys, 2.5*x+4+rnd.NormFloat64())
	}
	line, err := Fit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(line.Slope-2.5) > 0.01 {
		t.Fatalf("slope = %v, want ≈ 2.5", line.Slope)
	}
	if math.Abs(line.Intercept-4) > 0.5 {
		t.Fatalf("intercept = %v, want ≈ 4", line.Intercept)
	}
	if line.R2 < 0.99 {
		t.Fatalf("R² = %v", line.R2)
	}
}

func TestFitDegenerate(t *testing.T) {
	if _, err := Fit([]float64{1}, []float64{2}); !errors.Is(err, ErrDegenerate) {
		t.Fatalf("single point: err = %v", err)
	}
	if _, err := Fit([]float64{3, 3, 3}, []float64{1, 2, 3}); !errors.Is(err, ErrDegenerate) {
		t.Fatalf("zero x variance: err = %v", err)
	}
	if _, err := Fit([]float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("mismatched lengths should error")
	}
}

func TestFitOrigin(t *testing.T) {
	xs := []float64{1, 2, 4}
	ys := []float64{3, 6, 12}
	line, err := FitOrigin(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(line.Slope-3) > 1e-12 || line.Intercept != 0 {
		t.Fatalf("FitOrigin = %v", line)
	}
	if _, err := FitOrigin([]float64{0, 0}, []float64{1, 2}); !errors.Is(err, ErrDegenerate) {
		t.Fatalf("all-zero x: err = %v", err)
	}
	if _, err := FitOrigin(nil, nil); !errors.Is(err, ErrDegenerate) {
		t.Fatal("empty input should be degenerate")
	}
}

func TestFitLogLog(t *testing.T) {
	// y = 2·x^1.5 → log y = 1.5 log x + log 2.
	var xs, ys []float64
	for x := 1.0; x <= 64; x *= 2 {
		xs = append(xs, x)
		ys = append(ys, 2*math.Pow(x, 1.5))
	}
	// Non-positive points must be skipped, not crash the fit.
	xs = append(xs, 0, -3)
	ys = append(ys, 5, 5)
	line, err := FitLogLog(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(line.Slope-1.5) > 1e-9 {
		t.Fatalf("log-log slope = %v", line.Slope)
	}
	if math.Abs(line.Intercept-math.Log(2)) > 1e-9 {
		t.Fatalf("log-log intercept = %v", line.Intercept)
	}
}

func TestSummaryStatistics(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := Mean(xs); got != 2.5 {
		t.Errorf("Mean = %v", got)
	}
	if got := Median(xs); got != 2.5 {
		t.Errorf("Median = %v", got)
	}
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd Median = %v", got)
	}
	if got := Percentile(xs, 0); got != 1 {
		t.Errorf("P0 = %v", got)
	}
	if got := Percentile(xs, 100); got != 4 {
		t.Errorf("P100 = %v", got)
	}
	if got := Percentile(xs, 50); got != 2.5 {
		t.Errorf("P50 = %v", got)
	}
	if Mean(nil) != 0 || Median(nil) != 0 || Percentile(nil, 50) != 0 {
		t.Error("empty inputs should return 0")
	}
	// Percentile must not mutate its input.
	if xs[0] != 4 {
		t.Error("Percentile sorted the caller's slice")
	}
}

// TestFitRecoversPlantedLine is the property-based core: OLS must recover an
// arbitrary noiseless planted line exactly (up to float error).
func TestFitRecoversPlantedLine(t *testing.T) {
	f := func(slopeRaw, interceptRaw int16, seed int64) bool {
		slope := float64(slopeRaw) / 64
		intercept := float64(interceptRaw) / 64
		rnd := rand.New(rand.NewSource(seed))
		var xs, ys []float64
		for i := 0; i < 50; i++ {
			x := rnd.Float64()*1000 - 500
			xs = append(xs, x)
			ys = append(ys, slope*x+intercept)
		}
		line, err := Fit(xs, ys)
		if err != nil {
			return false
		}
		return math.Abs(line.Slope-slope) < 1e-6 && math.Abs(line.Intercept-intercept) < 1e-4
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestR2Bounded: R² of any fit on its own training data is at most 1 and,
// for OLS with intercept, at least 0.
func TestR2Bounded(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		var xs, ys []float64
		for i := 0; i < 20; i++ {
			xs = append(xs, rnd.Float64()*10)
			ys = append(ys, rnd.Float64()*10)
		}
		line, err := Fit(xs, ys)
		if err != nil {
			// Possible only if all x collide, which is vanishingly unlikely
			// but legal.
			return errors.Is(err, ErrDegenerate)
		}
		return line.R2 <= 1+1e-12 && line.R2 >= -1e-12
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(8))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestLineString(t *testing.T) {
	l := Line{Slope: 2, Intercept: 1, R2: 0.5, N: 3}
	if s := l.String(); s == "" {
		t.Fatal("empty String()")
	}
}
