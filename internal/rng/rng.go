// Package rng is the repository's one seeded random stream: splitmix64
// (Steele, Lea & Flood, "Fast splittable pseudorandom number generators",
// OOPSLA 2014). Every simulated draw — synthetic scheduling and step-time
// tables, annealing moves, arrival processes, trace network mixes — and
// every hash finalizer — the proxy's ring, trace IDs — comes from here, so
// a seed means the same sequence in every package and on every platform.
// A Stream is one 64-bit word: no locks, no global source, no allocation.
// So is FNV, the one FNV-1a hash that keys are folded with.
package rng

import "strconv"

// Gamma is the golden-ratio increment splitmix64 adds to its state before
// each draw. Generators that keep their state elsewhere (an atomic counter)
// add it themselves and finish each draw with Mix.
const Gamma = 0x9e3779b97f4a7c15

// Stream is a splitmix64 generator. The zero value is the stream seeded
// with 0. A Stream is not safe for concurrent use; each goroutine takes its
// own.
type Stream struct{ s uint64 }

// New returns the stream seeded with seed.
//
//dnnperf:allocfree
func New(seed uint64) Stream { return Stream{s: seed} }

// Uint64 returns the next 64 uniformly distributed bits.
//
//dnnperf:allocfree
func (r *Stream) Uint64() uint64 {
	r.s += Gamma
	return Mix(r.s)
}

// Float64 returns a uniform value in [0, 1) from the top 53 bits of a draw.
//
//dnnperf:allocfree
func (r *Stream) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a value in [0, n) as a draw modulo n, which every seeded
// stream in the repository was generated with; its bias is below n/2^64.
// n must be positive.
//
//dnnperf:allocfree
func (r *Stream) Intn(n int) int {
	return int(r.Uint64() % uint64(n))
}

// Mix is the splitmix64 output finalizer: a bijective avalanche of z in
// which every input bit flips each output bit with probability close to
// one half. Applied to a hash it spreads clustered keys evenly.
//
//dnnperf:allocfree
func Mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// FNV is a 64-bit FNV-1a hash state (Fowler, Noll & Vo): each byte is XORed
// into the state, which is then multiplied by the FNV prime. Each method
// folds one value and returns the new state, so a key hashes as one chain
// from NewFNV, and the state is the digest, bit-identical to hash/fnv's
// New64a over the same bytes. It is the repository's one FNV-1a: the
// device model's efficiency hashes, the profiler's run seeds, the proxy's
// shard keys and ring points, and the cache keys of networks, plans and
// layer shapes all fold through it.
type FNV uint64

// fnvPrime is the 64-bit FNV prime.
const fnvPrime = 1099511628211

// NewFNV returns the FNV-1a offset basis, the state before any byte.
//
//dnnperf:allocfree
func NewFNV() FNV { return 14695981039346656037 }

// Str folds the bytes of s.
//
//dnnperf:allocfree
func (h FNV) Str(s string) FNV {
	for i := 0; i < len(s); i++ {
		h = (h ^ FNV(s[i])) * fnvPrime
	}
	return h
}

// Bytes folds b.
//
//dnnperf:allocfree
func (h FNV) Bytes(b []byte) FNV {
	for _, c := range b {
		h = (h ^ FNV(c)) * fnvPrime
	}
	return h
}

// Int folds v's decimal digits, the bytes strconv.Itoa (and fmt's %d)
// spells it with.
//
//dnnperf:allocfree
func (h FNV) Int(v int) FNV {
	var buf [20]byte
	return h.Bytes(strconv.AppendInt(buf[:0], int64(v), 10))
}

// Word folds the eight bytes of v, least significant first.
//
//dnnperf:allocfree
func (h FNV) Word(v uint64) FNV {
	for i := 0; i < 8; i++ {
		h = (h ^ FNV(v&0xff)) * fnvPrime
		v >>= 8
	}
	return h
}
