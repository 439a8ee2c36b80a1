// Package dnn provides a framework-independent representation of deep neural
// networks: layers, the network DAG that connects them, static shape
// inference, and the structural work metrics (FLOPs and byte traffic) that the
// performance models in internal/core consume.
//
// The representation deliberately mirrors the level at which the MICRO'23
// paper "Path Forward Beyond Simulators" operates: a network is a topological
// list of layers, each layer knows its parameters and (after shape inference
// at a given batch size) its input/output tensor shapes, and from those two
// pieces of information alone all model inputs — total FLOPs, per-layer
// FLOPs, and the input/output NCHW products used by the kernel-wise model —
// can be derived without executing anything.
package dnn

import (
	"fmt"
	"math/bits"
	"strconv"
	"strings"
)

// Shape is a tensor shape. By convention dimension 0 is the batch size once a
// network has been inferred at a concrete batch size; before inference,
// network input shapes exclude the batch dimension (e.g. {3, 224, 224} for an
// ImageNet image, {128} for a 128-token text sequence).
type Shape []int

// Numel returns the total number of elements described by the shape.
// An empty shape has zero elements.
func (s Shape) Numel() int64 { return s.numel().v }

// numel is Numel with overflow tracking.
func (s Shape) numel() count {
	if len(s) == 0 {
		return count{}
	}
	n := count{v: 1}
	for _, d := range s {
		n = n.times(int64(d))
	}
	return n
}

// count is a non-negative int64 count that remembers whether its exact value
// ever left int64. Its v is the wrapped two's-complement result either way,
// so the unchecked accessors (Numel, LayerFLOPs, WeightCount) keep their
// values; shape inference rejects layers whose counts overflowed. The flag
// is accumulated without branches: these products run for every layer of
// every inference.
type count struct {
	v   int64
	ovf uint64 // non-zero once the exact value left int64
}

func (c count) overflow() bool { return c.ovf != 0 }

// times multiplies by a non-negative factor. The exact product fits in int64
// iff the high word of the 128-bit product is zero and the low word's top
// bit is clear; a negative factor reads as a huge unsigned one and fails the
// same test.
func (c count) times(x int64) count {
	hi, lo := bits.Mul64(uint64(c.v), uint64(x))
	return count{v: int64(lo), ovf: c.ovf | hi | lo>>63}
}

// plus adds a non-negative count; for non-negative operands the sum left
// int64 iff it wrapped negative.
func (c count) plus(o count) count {
	sum := c.v + o.v
	return count{v: sum, ovf: c.ovf | o.ovf | uint64(sum)>>63}
}

// Rank returns the number of dimensions.
func (s Shape) Rank() int { return len(s) }

// Clone returns a copy of the shape that shares no storage with s.
func (s Shape) Clone() Shape {
	c := make(Shape, len(s))
	copy(c, s)
	return c
}

// Equal reports whether two shapes have identical rank and dimensions.
func (s Shape) Equal(o Shape) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// Valid reports whether every dimension is strictly positive.
func (s Shape) Valid() bool {
	if len(s) == 0 {
		return false
	}
	for _, d := range s {
		if d <= 0 {
			return false
		}
	}
	return true
}

// Batch returns dimension 0, the batch size of an inferred shape.
func (s Shape) Batch() int {
	if len(s) == 0 {
		return 0
	}
	return s[0]
}

// Channels returns the channel dimension of an inferred NCHW shape, or the
// feature dimension of an (N, F) / (N, T, D) shape.
func (s Shape) Channels() int {
	switch len(s) {
	case 0, 1:
		return 0
	default:
		return s[1]
	}
}

// Spatial returns the product of all dimensions after the channel dimension
// (H*W for NCHW, 1 for flat shapes).
func (s Shape) Spatial() int64 {
	if len(s) <= 2 {
		return 1
	}
	p := int64(1)
	for _, d := range s[2:] {
		p *= int64(d)
	}
	return p
}

// WithBatch returns a new shape with the batch dimension n prepended.
func (s Shape) WithBatch(n int) Shape {
	out := make(Shape, 0, len(s)+1)
	out = append(out, n)
	out = append(out, s...)
	return out
}

// String renders the shape as, e.g., "(64, 3, 224, 224)".
func (s Shape) String() string {
	parts := make([]string, len(s))
	for i, d := range s {
		parts[i] = fmt.Sprintf("%d", d)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// appendString appends the String rendering to dst without allocating.
func (s Shape) appendString(dst []byte) []byte {
	dst = append(dst, '(')
	for i, d := range s {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = strconv.AppendInt(dst, int64(d), 10)
	}
	return append(dst, ')')
}
