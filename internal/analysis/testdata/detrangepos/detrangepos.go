// Package detrangepos holds true-positive fixtures for the detrange
// analyzer: order-sensitive work inside map ranges.
package detrangepos

import (
	"fmt"
	"io"
)

// sumValues folds floats in map order: nondeterministic final bits.
func sumValues(m map[string]float64) float64 {
	var total float64
	for _, v := range m {
		total += v
	}
	return total
}

// collectKeys appends in map order with no sort afterwards.
func collectKeys(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}

// acc mimics a running-sums statistics accumulator's folding API.
type acc struct{ sum float64 }

// Add folds one observation.
func (a *acc) Add(x float64) { a.sum += x }

// foldStats merges statistics in map order.
func foldStats(m map[string]float64) float64 {
	var a acc
	for _, v := range m {
		a.Add(v)
	}
	return a.sum
}

// dump serializes entries in map order.
func dump(w io.Writer, m map[string]int) {
	for k, v := range m {
		fmt.Fprintf(w, "%s=%d\n", k, v)
	}
}
