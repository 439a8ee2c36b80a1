package obs

import (
	"os"
	"sync/atomic"
	"time"

	"repro/internal/rng"
)

// Trace context: W3C-traceparent-style identifiers that tie one request's
// spans together across processes. The fleet proxy mints a SpanContext for
// each sampled request, sends it to the replica in a `traceparent` header,
// and echoes the trace ID back to the client in `X-Trace-Id`; the replica
// records its per-stage spans under the same trace ID, so the merged
// timeline (WriteChromeTraceMerged) shows the proxy hop and the replica
// stages as one request.
//
// The wire format follows the W3C recommendation's version-00 shape:
//
//	00-<32 lowercase hex trace-id>-<16 lowercase hex span-id>-<2 hex flags>
//
// exactly 55 bytes. Parsing is strict — wrong length, wrong dashes, upper
// case, an unknown version, or an all-zero trace/span ID all reject — so a
// malformed header degrades to "unsampled" instead of propagating garbage.

// traceparentLen is the exact length of a version-00 traceparent header.
const traceparentLen = 55

// FlagSampled is the traceparent flags bit marking a sampled request.
const FlagSampled = 0x01

// SpanContext identifies one span within one trace. The 128-bit trace ID is
// carried as two uint64 halves; the zero value is invalid by construction
// (all-zero IDs are reserved by the format).
type SpanContext struct {
	TraceHi, TraceLo uint64
	SpanID           uint64
	Flags            uint8
}

// Valid reports whether both the trace ID and the span ID are non-zero.
func (c SpanContext) Valid() bool {
	return (c.TraceHi != 0 || c.TraceLo != 0) && c.SpanID != 0
}

// idState seeds the process-local splitmix64 ID generator. Seeding from the
// clock and the PID keeps independently started replicas from colliding.
var idState atomic.Uint64

func init() {
	idState.Store(uint64(time.Now().UnixNano()) ^ uint64(os.Getpid())<<32)
}

// nextID returns the next splitmix64 output: an atomic add of the golden
// ratio increment followed by the splitmix64 finalizer, so concurrent
// callers share one stream without a lock. Never zero (the format reserves
// all-zero IDs).
func nextID() uint64 {
	for {
		if x := rng.Mix(idState.Add(rng.Gamma)); x != 0 {
			return x
		}
	}
}

// NewSpanContext mints a fresh sampled trace: new trace ID, new root span.
func NewSpanContext() SpanContext {
	return SpanContext{TraceHi: nextID(), TraceLo: nextID(), SpanID: nextID(), Flags: FlagSampled}
}

// Child returns a context in the same trace with a fresh span ID — the
// per-hop identity a propagating proxy or a receiving server uses.
func (c SpanContext) Child() SpanContext {
	c.SpanID = nextID()
	return c
}

const hexDigits = "0123456789abcdef"

// appendHex64 appends x as 16 lowercase hex digits.
func appendHex64(dst []byte, x uint64) []byte {
	for shift := 60; shift >= 0; shift -= 4 {
		dst = append(dst, hexDigits[(x>>uint(shift))&0xf])
	}
	return dst
}

// AppendTraceparent appends the version-00 header form of c to dst.
func (c SpanContext) AppendTraceparent(dst []byte) []byte {
	dst = append(dst, '0', '0', '-')
	dst = appendHex64(dst, c.TraceHi)
	dst = appendHex64(dst, c.TraceLo)
	dst = append(dst, '-')
	dst = appendHex64(dst, c.SpanID)
	dst = append(dst, '-', hexDigits[(c.Flags>>4)&0xf], hexDigits[c.Flags&0xf])
	return dst
}

// Traceparent renders the header value: 00-<trace>-<span>-<flags>.
func (c SpanContext) Traceparent() string {
	return string(c.AppendTraceparent(make([]byte, 0, traceparentLen)))
}

// TraceID renders the 32-hex-digit trace identifier (the X-Trace-Id echo).
func (c SpanContext) TraceID() string {
	b := make([]byte, 0, 32)
	b = appendHex64(b, c.TraceHi)
	b = appendHex64(b, c.TraceLo)
	return string(b)
}

// parseHex64 decodes exactly 16 lowercase hex digits.
func parseHex64(s string) (uint64, bool) {
	var x uint64
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= '0' && c <= '9':
			x = x<<4 | uint64(c-'0')
		case c >= 'a' && c <= 'f':
			x = x<<4 | uint64(c-'a'+10)
		default:
			return 0, false
		}
	}
	return x, true
}

// ParseTraceparent decodes a version-00 traceparent header. It is strict:
// anything but the exact 55-byte lowercase shape with non-zero trace and
// span IDs reports ok=false, and Format(Parse(h)) == h for every accepted h.
func ParseTraceparent(s string) (SpanContext, bool) {
	if len(s) != traceparentLen {
		return SpanContext{}, false
	}
	if s[0] != '0' || s[1] != '0' || s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return SpanContext{}, false
	}
	var c SpanContext
	var ok bool
	if c.TraceHi, ok = parseHex64(s[3:19]); !ok {
		return SpanContext{}, false
	}
	if c.TraceLo, ok = parseHex64(s[19:35]); !ok {
		return SpanContext{}, false
	}
	if c.SpanID, ok = parseHex64(s[36:52]); !ok {
		return SpanContext{}, false
	}
	flags, ok := parseHex64(s[53:55])
	if !ok {
		return SpanContext{}, false
	}
	c.Flags = uint8(flags)
	if !c.Valid() {
		return SpanContext{}, false
	}
	return c, true
}
