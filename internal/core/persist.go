package core

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"

	"repro/internal/regression"
)

// Model persistence. The paper's workflow (Figure 10) explicitly separates
// training from prediction: "the performance analytical model and its
// parameters can be distributed to users". This file serializes trained
// models as JSON so a model trained where the measurements live can be
// shipped to users who only have network structures.
//
// The envelope carries a kind tag and a format version; unknown kinds and
// newer versions are rejected with descriptive errors.

// persistVersion is the current serialization format version.
const persistVersion = 1

// envelope wraps any serialized model: Save writes it with M the model
// itself, Load reads it with M a json.RawMessage decoded once the kind is
// known.
type envelope[M any] struct {
	Kind    string `json:"kind"`
	Version int    `json:"version"`
	Model   M      `json:"model"`
}

// Model kinds in envelopes. An IGKW model is a KWModel (see igkw.go) and
// travels as a kw envelope whose train_gpus names its training GPUs.
const (
	kindE2E = "e2e"
	kindLW  = "lw"
	kindKW  = "kw"
)

// Save serializes a trained model (E2E, LW, KW or IGKW) to w. A KWModel's
// payload is its exported state; the unexported plan caches and online state
// are rebuilt lazily after Load.
func Save(w io.Writer, model Predictor) error {
	var kind string
	switch model.(type) {
	case *E2EModel:
		kind = kindE2E
	case *LWModel:
		kind = kindLW
	case *KWModel:
		kind = kindKW
	default:
		return fmt.Errorf("core: cannot serialize model type %T", model)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(envelope[Predictor]{Kind: kind, Version: persistVersion, Model: model}); err != nil {
		return fmt.Errorf("core: serialize %s model: %w", kind, err)
	}
	return nil
}

// Load deserializes a model previously written by Save. The concrete type is
// recovered from the envelope's kind tag. Every payload is validated before
// it is returned (see the models' validate methods), so a malformed envelope
// is an error here rather than an index panic or an infinite prediction
// later.
func Load(r io.Reader) (Predictor, error) {
	var env envelope[json.RawMessage]
	if err := json.NewDecoder(r).Decode(&env); err != nil {
		return nil, fmt.Errorf("core: load model: %w", err)
	}
	if env.Version > persistVersion {
		return nil, fmt.Errorf("core: model format version %d is newer than supported %d",
			env.Version, persistVersion)
	}
	var m interface {
		Predictor
		validate() error
	}
	switch env.Kind {
	case kindE2E:
		m = &E2EModel{}
	case kindLW:
		m = &LWModel{}
	case kindKW:
		m = &KWModel{}
	default:
		return nil, fmt.Errorf("core: unknown model kind %q", env.Kind)
	}
	if err := json.Unmarshal(env.Model, m); err != nil {
		return nil, fmt.Errorf("core: load %s model: %w", m.Name(), err)
	}
	if err := m.validate(); err != nil {
		return nil, fmt.Errorf("core: load %s model: %w", m.Name(), err)
	}
	if kw, ok := m.(*KWModel); ok {
		kw.initCaches()
	}
	return m, nil
}

// maxCoefficient bounds the magnitude of every slope and intercept Load
// accepts, so that no prediction of a loaded model can overflow to +Inf
// (which the serve handlers would render as invalid JSON). Inside a plan's
// batch domain every driver value — element count or FLOPs — fits in int64,
// so it is below 2^63, and one term is at most 2^900·(2^63+1) < 2^964. A
// plan sums fewer than 2^31 terms (its offsets are int32), so a prediction
// stays below 2^995, far inside float64's largest finite value (~2^1024).
// Fitted coefficients are hundreds of orders of magnitude smaller: seconds
// per element or per FLOP, and intercepts of microseconds.
const maxCoefficient = 0x1p900

// errUnbounded returns the error for a line beyond maxCoefficient, or nil.
func errUnbounded(what string, l regression.Line) error {
	if math.Abs(l.Slope) <= maxCoefficient && math.Abs(l.Intercept) <= maxCoefficient {
		return nil
	}
	return fmt.Errorf("%s has a coefficient beyond ±2^900 (%v)", what, l)
}

// validate rejects an E2E line beyond maxCoefficient.
func (m *E2EModel) validate() error { return errUnbounded("line", m.Line) }

// validate rejects an LW line beyond maxCoefficient.
func (m *LWModel) validate() error {
	if err := errUnbounded("pooled line", m.Pooled); err != nil {
		return err
	}
	for _, k := range m.KindsCovered() {
		if err := errUnbounded(string(k)+" line", m.Lines[k]); err != nil {
			return err
		}
	}
	return nil
}

// sortedStringKeys returns the map's keys in sorted order, for loops whose
// output depends on visiting order: Go randomizes map iteration order, so
// ranging the map directly would make the first validation error reported
// (and any float fold) differ between runs (the detrange invariant in
// internal/analysis).
func sortedStringKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// validate rejects KW state that prediction would trip over: a group_of
// index outside Groups (an index panic in every predict path), a group
// without kernels, a group, family or class-fallback driver outside
// Drivers() (silently read as some other driver variable), and a group,
// family or class-fallback line beyond maxCoefficient (a prediction that
// overflows to +Inf).
func (m *KWModel) validate() error {
	for _, name := range sortedStringKeys(m.GroupOf) {
		if gi := m.GroupOf[name]; gi < 0 || gi >= len(m.Groups) {
			return fmt.Errorf("group_of[%q] = %d is outside the %d groups", name, gi, len(m.Groups))
		}
	}
	for i, g := range m.Groups {
		if len(g.Kernels) == 0 {
			return fmt.Errorf("group %d has no kernels", i)
		}
		if !slices.Contains(Drivers(), g.Driver) {
			return fmt.Errorf("group %d has unknown driver %q", i, g.Driver)
		}
		if err := errUnbounded("group line", g.Line); err != nil {
			return fmt.Errorf("group %d: %w", i, err)
		}
	}
	for _, fam := range sortedStringKeys(m.Families) {
		c := m.Families[fam]
		if !slices.Contains(Drivers(), c.Driver) {
			return fmt.Errorf("family %q has unknown driver %q", fam, c.Driver)
		}
		if err := errUnbounded("line", c.Line); err != nil {
			return fmt.Errorf("family %q: %w", fam, err)
		}
	}
	known := 0
	for _, d := range Drivers() {
		if line, ok := m.ClassFallback[d]; ok {
			known++
			if err := errUnbounded("line", line); err != nil {
				return fmt.Errorf("class_fallback %q: %w", d, err)
			}
		}
	}
	if known != len(m.ClassFallback) {
		return fmt.Errorf("class_fallback has a driver outside %v", Drivers())
	}
	return nil
}

// SaveFile writes a model to path.
func SaveFile(path string, model Predictor) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if err := Save(f, model); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadFile reads a model from path.
func LoadFile(path string) (Predictor, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	defer f.Close()
	return Load(f)
}
