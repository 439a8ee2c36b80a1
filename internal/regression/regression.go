// Package regression implements the ordinary-least-squares machinery the
// paper's performance models are built from. The paper's central methodology
// claim is that *simple linear regression* — not PCA, not neural networks —
// suffices for DNN workloads on GPUs, so this package deliberately contains
// nothing fancier: 1-D OLS with R², optional through-origin fits, and the
// summary statistics the experiment harness reports.
package regression

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrDegenerate is returned when a fit is requested on data that cannot
// determine the parameters (fewer than two points, or zero variance in x).
var ErrDegenerate = errors.New("regression: degenerate data")

// Line is a fitted linear model y = Slope·x + Intercept.
type Line struct {
	Slope     float64
	Intercept float64
	// R2 is the coefficient of determination of the fit on its training
	// data.
	R2 float64
	// N is the number of training points.
	N int
}

// Predict evaluates the line at x.
func (l Line) Predict(x float64) float64 { return l.Slope*x + l.Intercept }

// String implements fmt.Stringer.
func (l Line) String() string {
	return fmt.Sprintf("y = %.6g·x + %.6g (R²=%.4f, n=%d)", l.Slope, l.Intercept, l.R2, l.N)
}

// Fit computes the ordinary-least-squares line through (x, y).
func Fit(x, y []float64) (Line, error) {
	if len(x) != len(y) {
		return Line{}, fmt.Errorf("regression: mismatched lengths %d vs %d", len(x), len(y))
	}
	n := len(x)
	if n < 2 {
		return Line{}, fmt.Errorf("%w: %d points", ErrDegenerate, n)
	}
	var sx, sy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/float64(n), sy/float64(n)
	var sxx, sxy float64
	for i := range x {
		dx := x[i] - mx
		sxx += dx * dx
		sxy += dx * (y[i] - my)
	}
	if sxx == 0 {
		return Line{}, fmt.Errorf("%w: zero variance in x", ErrDegenerate)
	}
	slope := sxy / sxx
	intercept := my - slope*mx
	return Line{Slope: slope, Intercept: intercept, R2: r2(x, y, slope, intercept), N: n}, nil
}

// FitOrigin computes the least-squares line through the origin,
// y = Slope·x. Useful when the physical model has no offset (e.g. FLOPS as
// the reciprocal of a slope).
func FitOrigin(x, y []float64) (Line, error) {
	if len(x) != len(y) {
		return Line{}, fmt.Errorf("regression: mismatched lengths %d vs %d", len(x), len(y))
	}
	if len(x) == 0 {
		return Line{}, fmt.Errorf("%w: no points", ErrDegenerate)
	}
	var sxx, sxy float64
	for i := range x {
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
	}
	if sxx == 0 {
		return Line{}, fmt.Errorf("%w: all x are zero", ErrDegenerate)
	}
	slope := sxy / sxx
	return Line{Slope: slope, R2: r2(x, y, slope, 0), N: len(x)}, nil
}

// FitLogLog fits log(y) = a·log(x) + b and reports the fit in log space,
// used by the analysis figures that work on log-log axes (Figure 3/7).
func FitLogLog(x, y []float64) (Line, error) {
	lx := make([]float64, 0, len(x))
	ly := make([]float64, 0, len(y))
	for i := range x {
		if x[i] <= 0 || y[i] <= 0 {
			continue
		}
		lx = append(lx, math.Log(x[i]))
		ly = append(ly, math.Log(y[i]))
	}
	return Fit(lx, ly)
}

// r2 computes the coefficient of determination of y against the line.
func r2(x, y []float64, slope, intercept float64) float64 {
	var my float64
	for _, v := range y {
		my += v
	}
	my /= float64(len(y))
	var ssRes, ssTot float64
	for i := range y {
		r := y[i] - (slope*x[i] + intercept)
		ssRes += r * r
		d := y[i] - my
		ssTot += d * d
	}
	if ssTot == 0 {
		if ssRes == 0 {
			return 1
		}
		return 0
	}
	return 1 - ssRes/ssTot
}

// Mean returns the arithmetic mean, or 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

// Median returns the median, or 0 for empty input.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	m := len(c) / 2
	if len(c)%2 == 1 {
		return c[m]
	}
	return (c[m-1] + c[m]) / 2
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) by linear
// interpolation, or 0 for empty input.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	if p <= 0 {
		return c[0]
	}
	if p >= 100 {
		return c[len(c)-1]
	}
	pos := p / 100 * float64(len(c)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(c) {
		return c[lo]
	}
	return c[lo]*(1-frac) + c[lo+1]*frac
}

// FitStats carries the uncertainty statistics of an OLS fit.
type FitStats struct {
	// RMSE is the root-mean-square residual of the fit.
	RMSE float64
	// SlopeSE and InterceptSE are the standard errors of the parameters.
	SlopeSE, InterceptSE float64
}

// FitDetail is Fit plus the residual and parameter uncertainty statistics.
func FitDetail(x, y []float64) (Line, FitStats, error) {
	line, err := Fit(x, y)
	if err != nil {
		return Line{}, FitStats{}, err
	}
	n := float64(len(x))
	var sx float64
	for _, v := range x {
		sx += v
	}
	mx := sx / n
	var sxx, ssRes float64
	for i := range x {
		dx := x[i] - mx
		sxx += dx * dx
		r := y[i] - line.Predict(x[i])
		ssRes += r * r
	}
	stats := FitStats{RMSE: math.Sqrt(ssRes / n)}
	if n > 2 && sxx > 0 {
		s2 := ssRes / (n - 2) // unbiased residual variance
		stats.SlopeSE = math.Sqrt(s2 / sxx)
		stats.InterceptSE = math.Sqrt(s2 * (1/n + mx*mx/sxx))
	}
	return line, stats, nil
}
