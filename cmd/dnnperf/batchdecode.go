package main

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"unicode/utf8"
)

// One-pass decoding of the /predict/batch POST body.
//
// encoding/json is the reference decoder: decodeBatchBody must accept
// exactly the bodies json.Decoder.Decode accepts and produce the same
// batchRequest for each. Most bodies, however, are the canonical JSON that
// json.Marshal and hand-written clients emit, and for those a scanner that
// knows the fixed schema does the same work without reflection. So the body
// is scanned once by batchScanner, which accepts only a canonical subset
// whose meaning under encoding/json is unambiguous:
//
//   - keys are the exact lowercase JSON names of the schema, each at most
//     once per object (encoding/json also matches other-case keys, ignores
//     unknown ones and merges duplicates into the same field);
//   - values have the schema's type: integer literals within int, strings
//     of printable ASCII without escapes, true/false, arrays and objects —
//     no null, no fractions or exponents;
//   - nothing but whitespace follows the value.
//
// Anything else — escapes, null, 1e2, 01, a duplicate key, trailing bytes —
// makes the scanner give up, and the body is decoded by encoding/json exactly
// as before. FuzzBatchRequestDecode checks that every body the scanner
// accepts decodes to a reflect.DeepEqual value under encoding/json.

// decodeBatchBody decodes a /predict/batch body into req: through the
// scanner when the body is canonical, through encoding/json otherwise. The
// decoded request never aliases body.
func decodeBatchBody(body []byte, req *batchRequest) error {
	s := batchScanner{b: body}
	if s.request(req) {
		return nil
	}
	*req = batchRequest{}
	return json.NewDecoder(bytes.NewReader(body)).Decode(req)
}

// The JSON keys of each schema type, read off its struct tags so the
// scanner's key set cannot drift from encoding/json's.
var (
	requestKeys = jsonKeys(reflect.TypeFor[batchRequest]())
	specKeys    = jsonKeys(reflect.TypeFor[batchSpec]())
	layerKeys   = jsonKeys(reflect.TypeFor[batchSpecLayer]())
)

// jsonKeys returns the json tag names of t's fields.
func jsonKeys(t reflect.Type) []string {
	keys := make([]string, t.NumField())
	for i := range keys {
		keys[i], _, _ = strings.Cut(t.Field(i).Tag.Get("json"), ",")
	}
	return keys
}

// batchScanner scans the canonical subset of the batchRequest schema. Every
// method returns false as soon as the input leaves that subset; the caller
// then discards whatever was decoded.
type batchScanner struct {
	b []byte
	i int
}

// request scans a whole body: one batchRequest object and trailing
// whitespace.
func (s *batchScanner) request(r *batchRequest) bool {
	ok := s.object(requestKeys, func(key string) bool {
		switch key {
		case "network":
			return s.str(&r.Network)
		case "network_spec":
			r.NetworkSpec = new(batchSpec)
			return s.spec(r.NetworkSpec)
		case "batches":
			return s.ints(&r.Batches)
		}
		return false
	})
	s.space()
	return ok && s.i == len(s.b)
}

func (s *batchScanner) spec(sp *batchSpec) bool {
	return s.object(specKeys, func(key string) bool {
		switch key {
		case "name":
			return s.str(&sp.Name)
		case "input_shape":
			return s.ints(&sp.InputShape)
		case "layers":
			return s.layers(&sp.Layers)
		}
		return false
	})
}

// layers scans an array of layer objects. An empty array decodes to an
// empty, non-nil slice, as in encoding/json.
func (s *batchScanner) layers(dst *[]batchSpecLayer) bool {
	if !s.next('[') {
		return false
	}
	out := []batchSpecLayer{}
	if s.next(']') {
		*dst = out
		return true
	}
	for {
		out = append(out, batchSpecLayer{})
		if !s.layer(&out[len(out)-1]) {
			return false
		}
		if !s.next(',') {
			*dst = out
			return s.next(']')
		}
	}
}

func (s *batchScanner) layer(l *batchSpecLayer) bool {
	return s.object(layerKeys, func(key string) bool {
		switch key {
		case "kind":
			return s.kind(&l.Kind)
		case "inputs":
			return s.ints(&l.Inputs)
		case "cin":
			return s.integer(&l.Cin)
		case "cout":
			return s.integer(&l.Cout)
		case "kh":
			return s.integer(&l.KH)
		case "kw":
			return s.integer(&l.KW)
		case "stride":
			return s.integer(&l.Stride)
		case "pad":
			return s.integer(&l.Pad)
		case "groups":
			return s.integer(&l.Groups)
		case "in_features":
			return s.integer(&l.InFeatures)
		case "out_features":
			return s.integer(&l.OutFeatures)
		case "vocab_size":
			return s.integer(&l.VocabSize)
		case "embed_dim":
			return s.integer(&l.EmbedDim)
		case "heads":
			return s.integer(&l.Heads)
		case "transpose_b":
			return s.boolean(&l.TransposeB)
		}
		return false
	})
}

// object scans one JSON object whose keys are distinct members of keys,
// calling field with each key (the element of keys, so no key is ever
// copied) to scan its value.
func (s *batchScanner) object(keys []string, field func(key string) bool) bool {
	if !s.next('{') {
		return false
	}
	if s.next('}') {
		return true
	}
	var seen uint64
	for {
		raw, ok := s.strBytes()
		if !ok || !s.next(':') {
			return false
		}
		k := -1
		for i, key := range keys {
			if string(raw) == key {
				k = i
				break
			}
		}
		if k < 0 || seen&(1<<k) != 0 || !field(keys[k]) {
			return false
		}
		seen |= 1 << k
		if !s.next(',') {
			return s.next('}')
		}
	}
}

// space skips JSON whitespace.
func (s *batchScanner) space() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// next consumes c after optional whitespace.
func (s *batchScanner) next(c byte) bool {
	s.space()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// strBytes scans a string of printable ASCII without escapes and returns
// its contents, aliasing the body.
func (s *batchScanner) strBytes() ([]byte, bool) {
	if !s.next('"') {
		return nil, false
	}
	for j := s.i; j < len(s.b); j++ {
		switch c := s.b[j]; {
		case c == '"':
			v := s.b[s.i:j]
			s.i = j + 1
			return v, true
		case c < 0x20 || c == '\\' || c >= utf8.RuneSelf:
			return nil, false
		}
	}
	return nil, false
}

func (s *batchScanner) str(dst *string) bool {
	v, ok := s.strBytes()
	*dst = string(v)
	return ok
}

// kind scans a layer kind. A known kind takes the interned name from
// validKinds, so it decodes without allocating; an unknown kind (a 422
// later) gets its own string.
func (s *batchScanner) kind(dst *string) bool {
	v, ok := s.strBytes()
	if k, known := validKinds[string(v)]; known {
		*dst = string(k)
	} else {
		*dst = string(v)
	}
	return ok
}

func (s *batchScanner) boolean(dst *bool) bool {
	s.space()
	switch rest := s.b[s.i:]; {
	case bytes.HasPrefix(rest, []byte("true")):
		*dst, s.i = true, s.i+len("true")
	case bytes.HasPrefix(rest, []byte("false")):
		*dst, s.i = false, s.i+len("false")
	default:
		return false
	}
	return true
}

// integer scans an integer literal -?(0|[1-9][0-9]*) within int, the
// numbers encoding/json stores in an int field. A fraction or exponent
// (valid JSON that encoding/json rejects for an int) ends the fast path.
func (s *batchScanner) integer(dst *int) bool {
	s.space()
	j := s.i
	neg := j < len(s.b) && s.b[j] == '-'
	limit := uint64(math.MaxInt)
	if neg {
		j++
		limit++ // -math.MinInt
	}
	start := j
	var v uint64
	for ; j < len(s.b) && s.b[j] >= '0' && s.b[j] <= '9'; j++ {
		v = v*10 + uint64(s.b[j]-'0')
	}
	digits := j - start
	switch {
	case digits == 0, digits > 1 && s.b[start] == '0', digits > 19, v > limit:
		return false // 19 digits cannot wrap v
	case j < len(s.b) && (s.b[j] == '.' || s.b[j] == 'e' || s.b[j] == 'E'):
		return false
	}
	if neg {
		*dst = int(-v)
	} else {
		*dst = int(v)
	}
	s.i = j
	return true
}

// ints scans an array of integers, allocated once at its exact length. An
// empty array decodes to an empty, non-nil slice, as in encoding/json.
func (s *batchScanner) ints(dst *[]int) bool {
	if !s.next('[') {
		return false
	}
	end := bytes.IndexByte(s.b[s.i:], ']')
	if end < 0 {
		return false
	}
	out := make([]int, 0, bytes.Count(s.b[s.i:s.i+end], []byte(","))+1)
	if s.next(']') {
		*dst = out
		return true
	}
	for {
		var v int
		if !s.integer(&v) {
			return false
		}
		out = append(out, v)
		if !s.next(',') {
			*dst = out
			return s.next(']')
		}
	}
}
