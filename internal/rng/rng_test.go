package rng

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"strconv"
	"testing"
)

// TestKnownAnswers pins the stream to splitmix64's published outputs: a
// change to the increment, the finalizer or the state update moves them.
func TestKnownAnswers(t *testing.T) {
	cases := []struct {
		seed uint64
		want []uint64
	}{
		{0, []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f}},
		{1234567, []uint64{6457827717110365317, 3203168211198807973, 9817491932198370423}},
	}
	for _, c := range cases {
		r := New(c.seed)
		for i, want := range c.want {
			if got := r.Uint64(); got != want {
				t.Fatalf("seed %d draw %d = %#x, want %#x", c.seed, i, got, want)
			}
		}
	}
	var zero Stream
	if got, want := zero.Uint64(), uint64(0xe220a8397b1dcdaf); got != want {
		t.Fatalf("zero Stream's first draw = %#x, want seed 0's %#x", got, want)
	}
}

// TestDerivedDraws checks Float64, Intn and Mix against the Uint64 draw
// they are defined on.
func TestDerivedDraws(t *testing.T) {
	a, b, c := New(99), New(99), New(99)
	for i := 0; i < 1000; i++ {
		u := a.Uint64()
		f := b.Float64()
		if f != float64(u>>11)/(1<<53) || f < 0 || f >= 1 {
			t.Fatalf("draw %d: Float64 = %v from Uint64 %#x", i, f, u)
		}
		n := 1 + i%37
		if got, want := c.Intn(n), int(u%uint64(n)); got != want {
			t.Fatalf("draw %d: Intn(%d) = %d, want %d", i, n, got, want)
		}
	}
	// Uint64 is Mix over the state after the increment.
	r := New(42)
	if got, want := r.Uint64(), Mix(42+Gamma); got != want {
		t.Fatalf("Uint64 = %#x, want Mix(seed+Gamma) = %#x", got, want)
	}
}

// TestFNVMatchesHashFNV folds strings, byte slices, ints and words and
// checks each chain against hash/fnv's New64a over the same bytes: the
// strconv spelling of an int, the little-endian bytes of a word.
func TestFNVMatchesHashFNV(t *testing.T) {
	ref := fnv.New64a()
	h := NewFNV()
	if uint64(h) != ref.Sum64() {
		t.Fatalf("NewFNV = %#x, want the offset basis %#x", uint64(h), ref.Sum64())
	}
	for _, s := range []string{"", "resnet50", "shape:", "TITAN RTX", "|\x00\xff"} {
		h = h.Str(s)
		ref.Write([]byte(s))
		h = h.Bytes([]byte(s))
		ref.Write([]byte(s))
	}
	for _, v := range []int{0, 7, -7, 512, math.MaxInt64, math.MinInt64} {
		h = h.Int(v)
		ref.Write([]byte(strconv.Itoa(v)))
	}
	for _, v := range []uint64{0, 1, 0xfedcba9876543210, math.MaxUint64} {
		h = h.Word(v)
		ref.Write(binary.LittleEndian.AppendUint64(nil, v))
	}
	if uint64(h) != ref.Sum64() {
		t.Fatalf("FNV chain = %#x, hash/fnv = %#x", uint64(h), ref.Sum64())
	}
}

// TestFNVAllocFree: folding allocates nothing, the decimal spelling of an
// int included.
func TestFNVAllocFree(t *testing.T) {
	b := []byte("body")
	var sink FNV
	if n := testing.AllocsPerRun(100, func() {
		sink = NewFNV().Str("net").Bytes(b).Int(-12345).Word(99)
	}); n != 0 {
		t.Fatalf("FNV fold allocates %v times per run", n)
	}
	_ = sink
}
