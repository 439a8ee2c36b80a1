// Package staleplanpos holds true-positive fixtures for the staleplan
// analyzer: coefficient writes outside the blessed mutators.
package staleplanpos

// KWModel mirrors the guarded model's coefficient fields.
type KWModel struct {
	Classif map[string]int
	Groups  []int
	GroupOf map[string]int
	Mapping map[string][]string
}

// FitKW is blessed (Fit prefix); its writes are allowed.
func FitKW() *KWModel {
	m := &KWModel{}
	m.Classif = map[string]int{}
	return m
}

// tamper mutates a coefficient field from an unblessed function.
func tamper(m *KWModel) {
	m.Classif = nil
}

// SetGroups mutates through a method that is not a blessed mutator.
func (m *KWModel) SetGroups(gs []int) {
	m.Groups = gs
}

// seedFromAccumulators mimics a streaming-fit fold that bypasses the blessed
// chain (the fit-prefixed cores / rebuildFromAccumulators): still a
// violation.
func seedFromAccumulators(m *KWModel) {
	m.Groups = append(m.Groups, 1)
}

// plant adds one mapping entry in place: the table grows, but cached plans
// and the cached mapping batches never hear of it.
func plant(m *KWModel, sig string, names []string) {
	m.Mapping[sig] = names
}

// forget deletes a mapping entry in place.
func forget(m *KWModel, sig string) {
	delete(m.Mapping, sig)
}

// wipe clears a coefficient map in place.
func (m *KWModel) wipe() {
	clear(m.GroupOf)
}

// regroup bumps a group index in place.
func regroup(m *KWModel, k string) {
	m.GroupOf[k]++
}

// retune overwrites one group's coefficients in place.
func retune(m *KWModel) {
	m.Groups[0] = 2
}

// reuse starts from a literal but rebinds the variable to an existing
// model: the literal exemption does not cover it.
func reuse(existing *KWModel) {
	m := &KWModel{}
	m = existing
	m.Mapping["sig"] = nil
}
