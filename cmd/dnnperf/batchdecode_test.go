package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dnn"
)

// novelSpecLayer and novelSpecBody are the wire format serve-novel clients
// send: json.Marshal of layer structs whose zero parameters are omitted.
type novelSpecLayer struct {
	Kind   string `json:"kind"`
	Cin    int    `json:"cin,omitempty"`
	Cout   int    `json:"cout,omitempty"`
	KH     int    `json:"kh,omitempty"`
	KW     int    `json:"kw,omitempty"`
	Stride int    `json:"stride,omitempty"`
	Pad    int    `json:"pad,omitempty"`
}

type novelSpecBody struct {
	NetworkSpec struct {
		Name       string           `json:"name"`
		InputShape []int            `json:"input_shape"`
		Layers     []novelSpecLayer `json:"layers"`
	} `json:"network_spec"`
	Batches []int `json:"batches"`
}

// novelBody returns the seeded serve-novel-shaped POST body i: a 3×S×S
// input and 6 to 20 conv → BatchNorm → ReLU blocks of random width, kernel
// size and stride, named uniquely per (seed, i).
func novelBody(seed int64, i int) []byte {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(i)))
	sizes := []int{32, 64, 128}
	widths := []int{16, 24, 32, 48, 64, 96, 128, 192, 256}
	ksizes := []int{1, 3, 5}
	side := sizes[rng.Intn(len(sizes))]
	var body novelSpecBody
	body.NetworkSpec.Name = fmt.Sprintf("nas-%d-%d", seed, i)
	body.NetworkSpec.InputShape = []int{3, side, side}
	body.Batches = []int{1, 8, 64, 512}
	cin := 3
	for b, blocks := 0, 6+rng.Intn(15); b < blocks; b++ {
		k := ksizes[rng.Intn(len(ksizes))]
		stride := 1
		if side >= 8 && rng.Intn(4) == 0 {
			stride = 2
			side = (side+2*(k/2)-k)/2 + 1
		}
		cout := widths[rng.Intn(len(widths))]
		body.NetworkSpec.Layers = append(body.NetworkSpec.Layers,
			novelSpecLayer{Kind: string(dnn.KindConv2D), Cin: cin, Cout: cout, KH: k, KW: k, Stride: stride, Pad: k / 2},
			novelSpecLayer{Kind: string(dnn.KindBatchNorm)},
			novelSpecLayer{Kind: string(dnn.KindReLU)})
		cin = cout
	}
	out, err := json.Marshal(body)
	if err != nil {
		panic(err) // the body types always marshal
	}
	return out
}

// fullLayerRequest is a batchRequest with every layer field set.
func fullLayerRequest() batchRequest {
	return batchRequest{
		Network: "ignored-when-a-spec-is-set",
		NetworkSpec: &batchSpec{Name: "every-field", InputShape: []int{3, 32, 32}, Layers: []batchSpecLayer{{
			Kind: "Conv2D", Inputs: []int{-1}, Cin: 3, Cout: 8, KH: 3, KW: 3, Stride: 1, Pad: 1, Groups: 1,
			InFeatures: 4, OutFeatures: 5, VocabSize: 6, EmbedDim: 7, Heads: 8, TransposeB: true,
		}, {
			Kind: "ReLU", Inputs: []int{}, Cin: -9223372036854775808, Cout: 9223372036854775807,
		}}},
		Batches: []int{1, 8, 64, 512},
	}
}

// scanCanonical runs only the one-pass scanner.
func scanCanonical(body []byte) (batchRequest, bool) {
	var r batchRequest
	s := batchScanner{b: body}
	return r, s.request(&r)
}

// TestBatchDecodeFastPath: the bodies clients actually send — json.Marshal
// of a batchRequest with every layer field set, and perfbench's
// serve-novel bodies — take the one-pass scanner, and decode to the value
// encoding/json gives.
func TestBatchDecodeFastPath(t *testing.T) {
	full, err := json.Marshal(fullLayerRequest())
	if err != nil {
		t.Fatal(err)
	}
	indented, err := json.MarshalIndent(fullLayerRequest(), "", "\t")
	if err != nil {
		t.Fatal(err)
	}
	bodies := [][]byte{full, indented, []byte(`{"network":"resnet50","batches":[1,8,64,512]}`)}
	for i := 0; i < 64; i++ {
		bodies = append(bodies, novelBody(1, i))
	}
	for _, body := range bodies {
		got, ok := scanCanonical(body)
		if !ok {
			t.Fatalf("scanner rejected a canonical body: %s", body)
		}
		var want batchRequest
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("scanner decoded %+v, encoding/json %+v, from %s", got, want, body)
		}
	}
}

// edgeBodies are valid or nearly valid bodies at the edge of the scanner's
// subset: -0 and a value followed by whitespace are inside it, the rest are
// outside and must reach encoding/json, which keeps deciding what they mean.
var edgeBodies = []string{
	`{"network":"\u0072esnet50","batches":[1]}`,          // escape
	`{"Network":"resnet50","BATCHES":[1]}`,               // mixed-case keys
	`{"network":null,"network_spec":null,"batches":[1]}`, // null
	`{"network":"resnet50","batches":[1e2]}`,             // exponent
	`{"network":"resnet50","batches":[1.0]}`,             // fraction
	`{"network":"resnet50","batches":[-0]}`,              // negative zero
	`{"network":"resnet50","batches":[01]}`,              // leading zero
	`{"network_spec":{"input_shape":[3,8,8],"layers":[{"kind":"ReLU"}]},` + // duplicate network_spec
		`"network_spec":{"name":"second"},"batches":[1]}`,
	`{"network":"resnet50","batches":[1],"priority":"high"}`,            // unknown key
	`{"network":"resnet50","batches":[1]} trailing`,                     // trailing bytes
	`{"network":"resnet50","batches":[9223372036854775808]}`,            // beyond int64
	`{"network":"resnet50","batches":[1]}` + strings.Repeat(" ", 2<<20), // 2 MiB, value ends early
}

// FuzzBatchRequestDecode checks the one-pass scanner against encoding/json:
// every body the scanner accepts, encoding/json also accepts, with a
// reflect.DeepEqual batchRequest; and decodeBatchBody as a whole agrees
// with the json.Decoder it replaces on every body.
func FuzzBatchRequestDecode(f *testing.F) {
	f.Add(novelBody(1, 0))
	full, err := json.Marshal(fullLayerRequest())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(full)
	for _, body := range edgeBodies {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if got, ok := scanCanonical(body); ok {
			var want batchRequest
			if err := json.Unmarshal(body, &want); err != nil {
				t.Fatalf("scanner accepted a body encoding/json rejects (%v): %q", err, body)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("scanner decoded %+v, encoding/json %+v, from %q", got, want, body)
			}
		}
		var got, want batchRequest
		gotErr := decodeBatchBody(body, &got)
		wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
		if (gotErr == nil) != (wantErr == nil) || !reflect.DeepEqual(got, want) {
			t.Fatalf("decodeBatchBody gave %+v (%v), json.Decoder %+v (%v), from %q", got, gotErr, want, wantErr, body)
		}
	})
}

// TestServePredictBatchBodyCap: a body over maxBatchBody is a 413 even when
// its JSON value ends well inside the limit.
func TestServePredictBatchBodyCap(t *testing.T) {
	h := fittedServer(t).handler()
	body := `{"network":"resnet50","batches":[1]}` + strings.Repeat(" ", 2*maxBatchBody)
	if w := post(t, h, "/predict/batch", body); w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413: %s", w.Code, w.Body)
	}
	if w := post(t, h, "/predict/batch", body[:maxBatchBody]); w.Code != http.StatusOK {
		t.Fatalf("body of exactly %d bytes: status %d, want 200: %s", maxBatchBody, w.Code, w.Body)
	}
}
