// Package units defines the named quantity types the model layer is written
// in: Seconds for measured and predicted durations, FLOPs for operation
// counts, and Bytes for data volumes.
//
// The point of the named types is the compile-time unit boundary they create.
// Inside the model layer (internal/core, internal/dataset) every duration,
// FLOP count and byte count carries its unit in the type, so seconds can
// never be silently added to FLOPs and a refactor can never swap two
// same-typed float64 arguments without the compiler noticing. Crossing into
// unitless math (internal/regression's OLS machinery works on plain float64
// regressors) requires an explicit conversion — float64(sec), float64(fl) —
// which makes every unit boundary visible and lintable: the unitsafe analyzer
// in internal/analysis flags expressions that strip two *different* units and
// mix the raw values in one arithmetic expression.
//
// The device/simulation layer below the dataset (internal/dnn,
// internal/kernels, internal/profiler, internal/sim) deliberately stays on
// raw int64/float64: those packages compute structural quantities that get
// their unit meaning only when ingested into dataset records.
package units

import (
	"fmt"
	"math"
)

// Seconds is a duration in seconds. All model predictions and all measured
// execution times in dataset records carry this type.
type Seconds float64

// Float64 returns the raw value, the explicit exit into unitless math.
func (s Seconds) Float64() float64 { return float64(s) }

// Micros returns the duration in microseconds (kernel durations are
// conventionally reported in µs).
func (s Seconds) Micros() float64 { return float64(s) * 1e6 }

// IsNaN reports whether the duration is NaN.
func (s Seconds) IsNaN() bool { return math.IsNaN(float64(s)) }

// String implements fmt.Stringer.
func (s Seconds) String() string { return fmt.Sprintf("%gs", float64(s)) }

// FLOPs is a count of floating-point operations.
type FLOPs int64

// Float64 returns the count as a regression-ready float64.
func (f FLOPs) Float64() float64 { return float64(f) }

// String implements fmt.Stringer.
func (f FLOPs) String() string { return fmt.Sprintf("%dflop", int64(f)) }

// Bytes is a data volume in bytes.
type Bytes int64

// Float64 returns the volume as a regression-ready float64.
func (b Bytes) Float64() float64 { return float64(b) }

// String implements fmt.Stringer.
func (b Bytes) String() string { return fmt.Sprintf("%dB", int64(b)) }
