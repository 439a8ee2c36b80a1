package regression

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func TestMultiFitRecoversPlane(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	var xs [][]float64
	var ys []float64
	for i := 0; i < 300; i++ {
		a, b := rnd.Float64()*10, rnd.Float64()*5
		xs = append(xs, []float64{a, b})
		ys = append(ys, 2*a-3*b+7)
	}
	m, err := MultiFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Coef[0]-2) > 1e-6 || math.Abs(m.Coef[1]+3) > 1e-6 ||
		math.Abs(m.Intercept-7) > 1e-5 {
		t.Fatalf("MultiFit = %+v", m)
	}
	if m.R2 < 0.999999 {
		t.Fatalf("R² = %v", m.R2)
	}
	if got := m.Predict([]float64{1, 1}); math.Abs(got-6) > 1e-5 {
		t.Fatalf("Predict = %v", got)
	}
}

func TestMultiFitMatchesSimpleFit(t *testing.T) {
	// With one predictor, MultiFit must agree with Fit.
	rnd := rand.New(rand.NewSource(4))
	var xs1 []float64
	var xsM [][]float64
	var ys []float64
	for i := 0; i < 100; i++ {
		x := rnd.Float64() * 50
		xs1 = append(xs1, x)
		xsM = append(xsM, []float64{x})
		ys = append(ys, 1.5*x+rnd.NormFloat64())
	}
	simple, err := Fit(xs1, ys)
	if err != nil {
		t.Fatal(err)
	}
	multi, err := MultiFit(xsM, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(simple.Slope-multi.Coef[0]) > 1e-6 ||
		math.Abs(simple.Intercept-multi.Intercept) > 1e-6 {
		t.Fatalf("simple %v vs multi %+v", simple, multi)
	}
}

func TestMultiFitErrors(t *testing.T) {
	if _, err := MultiFit(nil, nil); !errors.Is(err, ErrDegenerate) {
		t.Fatal("empty input")
	}
	if _, err := MultiFit([][]float64{{1, 2}}, []float64{1}); !errors.Is(err, ErrDegenerate) {
		t.Fatal("too few points for two predictors")
	}
	if _, err := MultiFit([][]float64{{1}, {2}}, []float64{1}); err == nil {
		t.Fatal("mismatched lengths")
	}
	if _, err := MultiFit([][]float64{{1}, {2}, {3, 4}, {5}}, []float64{1, 2, 3, 4}); err == nil {
		t.Fatal("ragged rows")
	}
}
