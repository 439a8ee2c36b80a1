package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dnn"
)

// traffic is a request stream to the fleet. Request i is a pure function
// of the seed and i, so every run with the same seed sends the same
// requests, and the benchmark can check each answer.
type traffic interface {
	// request builds request i against base ("http://host:port").
	request(i int, base string) (*http.Request, error)
	// check verifies the response to request i. It may keep the body for
	// verify, which runs after the measured window.
	check(i int, status int, body []byte) error
	// verify finishes the deferred checks, counting failures into r.
	verify(r *run)
}

// hotNets are the nine networks of the paper's Figure 19 scheduling queue,
// and hotBatches the batch sizes the cached /predict mix crosses them with.
var (
	hotNets    = []string{"resnet44", "resnet50", "resnet62", "resnet77", "densenet121", "densenet161", "densenet169", "densenet201", "shufflenet_v1"}
	hotBatches = []int{1, 8, 64, 512}
)

// hotTraffic is the cached /predict mix of the traced run's ledger: GET
// /predict over the 36 (network, batch) pairs in a seeded order. Every
// answer must equal, byte for byte, the body rendered from the in-process
// reference model's prediction.
type hotTraffic struct {
	paths []string // per pair: "/predict?network=..&batch=.."
	want  [][]byte // per pair: the exact response body
	mix   []int    // seeded pair order, cycled
}

func newHotTraffic(ref *fitResult, seed int64) (*hotTraffic, error) {
	t := &hotTraffic{}
	for _, name := range hotNets {
		net, err := ref.lab.Network(name)
		if err != nil {
			return nil, err
		}
		for _, b := range hotBatches {
			pred, err := ref.model.PredictNetwork(net, b)
			if err != nil {
				return nil, err
			}
			t.paths = append(t.paths, fmt.Sprintf("/predict?network=%s&batch=%d", name, b))
			t.want = append(t.want, renderPredict(ref.model, name, b, pred.Float64()))
		}
	}
	rng := splitmix{s: uint64(seed)}
	t.mix = make([]int, 1<<16)
	for i := range t.mix {
		t.mix[i] = rng.intn(len(t.paths))
	}
	return t, nil
}

// pair maps request i onto its (network, batch) pair.
func (t *hotTraffic) pair(i int) int { return t.mix[i%len(t.mix)] }

func (t *hotTraffic) request(i int, base string) (*http.Request, error) {
	return http.NewRequest(http.MethodGet, base+t.paths[t.pair(i)], nil)
}

func (t *hotTraffic) check(i int, status int, body []byte) error {
	p := t.pair(i)
	if status != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", t.paths[p], status, bytes.TrimSpace(body))
	}
	if !bytes.Equal(body, t.want[p]) {
		return fmt.Errorf("%s: served %s, in-process model gives %s", t.paths[p], bytes.TrimSpace(body), bytes.TrimSpace(t.want[p]))
	}
	return nil
}

func (t *hotTraffic) verify(*run) {}

// renderPredict renders the /predict body dnnperf serve writes for a
// prediction of pred seconds.
func renderPredict(m *core.KWModel, network string, batch int, pred float64) []byte {
	b := []byte(`{"model":` + strconv.Quote(m.Name()) + `,"gpu":` + strconv.Quote(m.GPUName()) +
		`,"network":` + strconv.Quote(network) + `,"batch":` + strconv.Itoa(batch) + `,"predicted_ms":`)
	b = strconv.AppendFloat(b, pred*1e3, 'g', -1, 64)
	return append(b, "}\n"...)
}

// novelBatches is the batch sweep every serve-novel request asks for.
var novelBatches = []int{1, 8, 64, 512}

// novelVerifyEvery is the sampling period of the serve-novel answers that
// are recompiled in-process and compared after the window.
const novelVerifyEvery = 8

// specLayer and spec are the inline network_spec wire format of
// POST /predict/batch (fields as dnnperf serve decodes them).
type specLayer struct {
	Kind   string `json:"kind"`
	Cin    int    `json:"cin,omitempty"`
	Cout   int    `json:"cout,omitempty"`
	KH     int    `json:"kh,omitempty"`
	KW     int    `json:"kw,omitempty"`
	Stride int    `json:"stride,omitempty"`
	Pad    int    `json:"pad,omitempty"`
}

type spec struct {
	Name       string      `json:"name"`
	InputShape []int       `json:"input_shape"`
	Layers     []specLayer `json:"layers"`
}

// genSpec draws the seeded never-repeated CNN for request i: an input of
// 3×S×S and 6 to 20 conv → BatchNorm → ReLU blocks of random width, kernel
// size and stride. Its name is unique per (seed, i), so it can never hit a
// plan compiled for another request.
func genSpec(seed int64, i int) spec {
	rng := splitmix{s: uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(i)*0xbf58476d1ce4e5b9}
	sizes := []int{32, 64, 128}
	widths := []int{16, 24, 32, 48, 64, 96, 128, 192, 256}
	kernels := []int{1, 3, 5}
	side := sizes[rng.intn(len(sizes))]
	s := spec{Name: fmt.Sprintf("nas-%d-%d", seed, i), InputShape: []int{3, side, side}}
	cin := 3
	for b, blocks := 0, 6+rng.intn(15); b < blocks; b++ {
		k := kernels[rng.intn(len(kernels))]
		stride := 1
		if side >= 8 && rng.intn(4) == 0 {
			stride = 2
			side = (side+2*(k/2)-k)/2 + 1
		}
		cout := widths[rng.intn(len(widths))]
		s.Layers = append(s.Layers,
			specLayer{Kind: string(dnn.KindConv2D), Cin: cin, Cout: cout, KH: k, KW: k, Stride: stride, Pad: k / 2},
			specLayer{Kind: string(dnn.KindBatchNorm)},
			specLayer{Kind: string(dnn.KindReLU)})
		cin = cout
	}
	return s
}

// network builds the spec in-process the way dnnperf serve does: layer i
// reads layer i-1 (the network input for the first), dense convolutions.
func (s spec) network() (*dnn.Network, error) {
	n := dnn.New(s.Name, "custom", dnn.TaskImageClassification, dnn.Shape(s.InputShape))
	for i, l := range s.Layers {
		in := i - 1
		if i == 0 {
			in = dnn.NetworkInput
		}
		layer := &dnn.Layer{Kind: dnn.Kind(l.Kind), Inputs: []int{in},
			Cin: l.Cin, Cout: l.Cout, KH: l.KH, KW: l.KW, Stride: l.Stride, Pad: l.Pad}
		if layer.Kind == dnn.KindConv2D {
			layer.Groups = 1
		}
		n.Add(layer)
	}
	return n, n.Infer(1)
}

// novelBody is the POST /predict/batch body for request i.
func novelBody(seed int64, i int) []byte {
	b, err := json.Marshal(struct {
		NetworkSpec spec  `json:"network_spec"`
		Batches     []int `json:"batches"`
	}{genSpec(seed, i), novelBatches})
	if err != nil {
		panic(err) // the spec types always marshal
	}
	return b
}

// novelTraffic is serve-novel: POST /predict/batch with a never-repeated
// inline network_spec per request. Every answer must be a 200 for that
// spec; a seeded sample is recompiled in-process with CompilePlan and
// PredictSweep and must match byte for byte.
type novelTraffic struct {
	seed   int64
	model  *core.KWModel
	bodies [][]byte // pre-generated bodies; later indexes are generated on demand

	mu   sync.Mutex
	kept map[int][]byte
}

func newNovelTraffic(ref *fitResult, seed int64, pregen int) *novelTraffic {
	t := &novelTraffic{seed: seed, model: ref.model, bodies: make([][]byte, pregen), kept: map[int][]byte{}}
	for i := range t.bodies {
		t.bodies[i] = novelBody(seed, i)
	}
	return t
}

func (t *novelTraffic) body(i int) []byte {
	if i < len(t.bodies) {
		return t.bodies[i]
	}
	return novelBody(t.seed, i)
}

func (t *novelTraffic) request(i int, base string) (*http.Request, error) {
	req, err := http.NewRequest(http.MethodPost, base+"/predict/batch", bytes.NewReader(t.body(i)))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return req, nil
}

// sampled reports whether request i's answer is verified in-process.
func (t *novelTraffic) sampled(i int) bool {
	rng := splitmix{s: uint64(t.seed) ^ uint64(i)*0x94d049bb133111eb}
	return rng.intn(novelVerifyEvery) == 0
}

func (t *novelTraffic) check(i int, status int, body []byte) error {
	name := fmt.Sprintf("nas-%d-%d", t.seed, i)
	if status != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", name, status, bytes.TrimSpace(body))
	}
	if !bytes.Contains(body, []byte(`"network":"`+name+`"`)) {
		return fmt.Errorf("%s: answer names another network: %s", name, bytes.TrimSpace(body))
	}
	if t.sampled(i) {
		t.mu.Lock()
		t.kept[i] = body
		t.mu.Unlock()
	}
	return nil
}

func (t *novelTraffic) verify(r *run) {
	for i, body := range t.kept {
		want, err := t.expected(i)
		if err != nil {
			r.fail("nas-%d-%d: in-process compile: %v", t.seed, i, err)
			continue
		}
		if !bytes.Equal(body, want) {
			r.fail("nas-%d-%d: served %s, in-process plan gives %s", t.seed, i, bytes.TrimSpace(body), bytes.TrimSpace(want))
		}
	}
}

// expected renders the body dnnperf serve must answer request i with, from
// an in-process CompilePlan + PredictSweep of the same spec.
func (t *novelTraffic) expected(i int) ([]byte, error) {
	s := genSpec(t.seed, i)
	n, err := s.network()
	if err != nil {
		return nil, err
	}
	p, err := t.model.CompilePlan(n)
	if err != nil {
		return nil, err
	}
	b := []byte(`{"model":` + strconv.Quote(t.model.Name()) + `,"gpu":` + strconv.Quote(t.model.GPUName()) +
		`,"network":` + strconv.Quote(s.Name) + `,"batches":[`)
	for j, bs := range novelBatches {
		if j > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(bs), 10)
	}
	b = append(b, `],"predicted_ms":[`...)
	for j, sec := range p.PredictSweep(novelBatches) {
		if j > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, sec.Float64()*1e3, 'g', -1, 64)
	}
	return append(b, "]}\n"...), nil
}

// compileSpecs times m.CompilePlan on the novel specs from..from+n of a
// seed and returns the mean µs per compile.
func compileSpecs(m *core.KWModel, seed int64, from, n int) (float64, error) {
	nets := make([]*dnn.Network, n)
	for j := range nets {
		var err error
		if nets[j], err = genSpec(seed, from+j).network(); err != nil {
			return 0, err
		}
	}
	start := time.Now()
	for _, net := range nets {
		if _, err := m.CompilePlan(net); err != nil {
			return 0, err
		}
	}
	return us(time.Since(start)) / float64(n), nil
}

// splitmix is a splitmix64 stream, the generator behind every seeded
// serve-novel input.
type splitmix struct{ s uint64 }

func (r *splitmix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *splitmix) intn(n int) int { return int(r.next() % uint64(n)) }
