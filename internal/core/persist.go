package core

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
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

// envelope wraps any serialized model.
type envelope struct {
	Kind    string          `json:"kind"`
	Version int             `json:"version"`
	Model   json.RawMessage `json:"model"`
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
	raw, err := json.Marshal(model)
	if err != nil {
		return fmt.Errorf("core: serialize %s model: %w", kind, err)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(envelope{Kind: kind, Version: persistVersion, Model: raw})
}

// Load deserializes a model previously written by Save. The concrete type is
// recovered from the envelope's kind tag. A KW payload is validated before it
// is returned (see KWModel.validate), so a malformed envelope is an error
// here rather than an index panic at prediction time.
func Load(r io.Reader) (Predictor, error) {
	var env envelope
	if err := json.NewDecoder(r).Decode(&env); err != nil {
		return nil, fmt.Errorf("core: load model: %w", err)
	}
	if env.Version > persistVersion {
		return nil, fmt.Errorf("core: model format version %d is newer than supported %d",
			env.Version, persistVersion)
	}
	var m Predictor
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
	if kw, ok := m.(*KWModel); ok {
		if err := kw.validate(); err != nil {
			return nil, fmt.Errorf("core: load %s model: %w", kw.Name(), err)
		}
	}
	return m, nil
}

// validate rejects KW state that prediction would trip over: a group_of
// index outside Groups (an index panic in every predict path), a group
// without kernels, and a group, family or class-fallback driver outside
// Drivers() (silently read as some other driver variable).
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
	}
	for _, fam := range sortedStringKeys(m.Families) {
		if d := m.Families[fam].Driver; !slices.Contains(Drivers(), d) {
			return fmt.Errorf("family %q has unknown driver %q", fam, d)
		}
	}
	known := 0
	for _, d := range Drivers() {
		if _, ok := m.ClassFallback[d]; ok {
			known++
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
