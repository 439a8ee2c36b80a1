// Package staleplanneg holds true-negative fixtures for the staleplan
// analyzer: blessed mutators, non-coefficient fields and unguarded types.
package staleplanneg

// KWModel mirrors the guarded model.
type KWModel struct {
	Classif  map[string]int
	Mapping  map[string][]string
	Training string
}

// FitKW is blessed by the Fit prefix.
func FitKW() *KWModel {
	m := &KWModel{}
	m.Classif = map[string]int{}
	return m
}

// ObserveRecords is blessed by exact name, in-place writes included.
func (m *KWModel) ObserveRecords() {
	m.Classif = nil
	m.Mapping["sig"] = []string{"k"}
	delete(m.Mapping, "old")
}

// rebuildFromAccumulators is blessed by exact name.
func (m *KWModel) rebuildFromAccumulators() {
	m.Classif = map[string]int{}
}

// SetTraining writes a non-coefficient field: no plan depends on it.
func (m *KWModel) SetTraining(s string) {
	m.Training = s
}

// OtherModel shares a field name but is not a guarded type.
type OtherModel struct{ Classif int }

// set writes the unguarded type freely.
func set(o *OtherModel) {
	o.Classif = 1
}

// fitKWRecords is blessed by the fit prefix: the shared fitting core both
// the record-scan and streaming paths funnel into.
func fitKWRecords(m *KWModel) {
	m.Classif = map[string]int{}
}

// Resolve builds a fresh model from a literal and fills its maps, as
// IGKWBase.Resolve does: a new model has no cache to go stale.
func Resolve(sigs map[string][]string) *KWModel {
	m := &KWModel{Mapping: map[string][]string{}}
	for sig, ks := range sigs {
		m.Mapping[sig] = ks
	}
	delete(m.Mapping, "")
	return m
}

// resolveValue fills a value-typed literal model.
func resolveValue() KWModel {
	var m = KWModel{Classif: map[string]int{}}
	m.Classif["k"] = 1
	return m
}

// copyOut writes into a local map read from the model, not the model.
func copyOut(m *KWModel) map[string]int {
	out := map[string]int{}
	for k, v := range m.Classif {
		out[k] = v
	}
	return out
}

// OtherIndexed shares a field name but is not a guarded type.
type OtherIndexed struct{ Mapping map[string]int }

// setIndexed writes the unguarded type's map freely.
func setIndexed(o *OtherIndexed) {
	o.Mapping["k"] = 1
	delete(o.Mapping, "k")
}
