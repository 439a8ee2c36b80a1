package analysis

import (
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
	"testing"
)

// Shared across tests: the source importer re-checks stdlib dependencies
// from source, so one importer per test binary keeps the suite fast.
var (
	fixtureFset = token.NewFileSet()
	fixtureImp  = NewImporter(fixtureFset)
)

// loadFixture type-checks one testdata fixture package.
func loadFixture(t *testing.T, name string) *Pass {
	t.Helper()
	pass, err := LoadDir(fixtureFset, fixtureImp, filepath.Join("testdata", name), name)
	if err != nil {
		t.Fatalf("load fixture %s: %v", name, err)
	}
	return pass
}

// runFixture applies one analyzer to a fixture and checks the finding count
// and that every finding carries the analyzer's name and a position inside
// the fixture.
func runFixture(t *testing.T, a Analyzer, fixture string, want int) []Finding {
	t.Helper()
	findings := a.Run(loadFixture(t, fixture))
	for _, f := range findings {
		if f.Analyzer != a.Name() {
			t.Errorf("%s: finding tagged %q, want %q", fixture, f.Analyzer, a.Name())
		}
		if !strings.Contains(f.Pos.Filename, fixture) {
			t.Errorf("%s: finding at %s outside the fixture", fixture, f.Pos.Filename)
		}
		if f.Pos.Line == 0 {
			t.Errorf("%s: finding without a line: %s", fixture, f)
		}
	}
	if len(findings) != want {
		for _, f := range findings {
			t.Logf("  %s", f)
		}
		t.Fatalf("%s: %d findings, want %d", fixture, len(findings), want)
	}
	return findings
}

func TestDetrangePositive(t *testing.T) {
	findings := runFixture(t, NewDetrange(), "detrangepos", 4)
	// One finding per hazard class: float accumulation, unsorted append,
	// accumulator fold, serialized write.
	var kinds [4]bool
	for _, f := range findings {
		switch {
		case strings.Contains(f.Message, "float accumulation"):
			kinds[0] = true
		case strings.Contains(f.Message, "append to"):
			kinds[1] = true
		case strings.Contains(f.Message, "folds statistics"):
			kinds[2] = true
		case strings.Contains(f.Message, "serializes entries"):
			kinds[3] = true
		}
	}
	for i, seen := range kinds {
		if !seen {
			t.Errorf("hazard class %d not reported", i)
		}
	}
}

func TestDetrangeNegative(t *testing.T) {
	runFixture(t, NewDetrange(), "detrangeneg", 0)
}

// TestDetrangeGlobalRand covers the global-randomness rule: the four
// package-level draws are flagged; the seeded-generator functions are not.
func TestDetrangeGlobalRand(t *testing.T) {
	findings := runFixture(t, NewDetrange(), "detrangerand", 4)
	for _, f := range findings {
		if !strings.Contains(f.Message, "process-global random source") {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	want := map[string]bool{
		"math/rand.Float64": false, "math/rand.Intn": false,
		"math/rand.Shuffle": false, "math/rand.Perm": false,
	}
	for _, f := range findings {
		for name := range want {
			if strings.HasPrefix(f.Message, name+" ") {
				want[name] = true
			}
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("%s draw not reported", name)
		}
	}
}

func TestFloateqPositive(t *testing.T) {
	runFixture(t, NewFloateq(), "floateqpos", 3)
}

func TestFloateqNegative(t *testing.T) {
	runFixture(t, NewFloateq(), "floateqneg", 0)
}

func TestUnitsafePositive(t *testing.T) {
	findings := runFixture(t, NewUnitsafe([]string{"unitsafepos"}), "unitsafepos", 5)
	mixing, naming := 0, 0
	for _, f := range findings {
		if strings.Contains(f.Message, "laundered") {
			mixing++
		} else {
			naming++
		}
	}
	if mixing != 2 || naming != 3 {
		t.Fatalf("mixing=%d naming=%d, want 2 and 3", mixing, naming)
	}
}

func TestUnitsafeNegative(t *testing.T) {
	runFixture(t, NewUnitsafe([]string{"unitsafeneg"}), "unitsafeneg", 0)
}

func TestUnitsafeScopeGatesNameRule(t *testing.T) {
	// Out of scope, only the conversion-laundering rule applies: the raw
	// naming findings (3 of 5) disappear.
	runFixture(t, NewUnitsafe(nil), "unitsafepos", 2)
}

func TestLocksafePositive(t *testing.T) {
	findings := runFixture(t, NewLocksafe(), "locksafepos", 3)
	var copies, unpaired int
	for _, f := range findings {
		if strings.Contains(f.Message, "no matching") {
			unpaired++
		} else {
			copies++
		}
	}
	if copies != 2 || unpaired != 1 {
		t.Fatalf("copies=%d unpaired=%d, want 2 and 1", copies, unpaired)
	}
}

func TestLocksafeNegative(t *testing.T) {
	runFixture(t, NewLocksafe(), "locksafeneg", 0)
}

// TestUnitsafeLoadgenFixture models the load-generator result surface: a
// measurement window or latency summary that regresses to a raw float64
// must be flagged once repro/internal/loadgen is in the unitsafe scope.
func TestUnitsafeLoadgenFixture(t *testing.T) {
	runFixture(t, NewUnitsafe([]string{"unitsafeloadgen"}), "unitsafeloadgen", 2)
}

// TestLocksafeFleetFixture models the fleet proxy's routing-table shapes:
// a copied table mutex and a lock leaked on the mark-unready path.
func TestLocksafeFleetFixture(t *testing.T) {
	findings := runFixture(t, NewLocksafe(), "locksafefleet", 2)
	var copies, unpaired int
	for _, f := range findings {
		if strings.Contains(f.Message, "no matching") {
			unpaired++
		} else {
			copies++
		}
	}
	if copies != 1 || unpaired != 1 {
		t.Fatalf("copies=%d unpaired=%d, want 1 and 1", copies, unpaired)
	}
}

// TestLocksafeRegistryFixture models the registry publish path: the leaked
// publisher lock is flagged, the deferred-unlock shape is not.
func TestLocksafeRegistryFixture(t *testing.T) {
	findings := runFixture(t, NewLocksafe(), "locksaferegistry", 1)
	if !strings.Contains(findings[0].Message, "no matching") {
		t.Fatalf("unexpected finding: %s", findings[0])
	}
}

func TestStaleplanPositive(t *testing.T) {
	findings := runFixture(t, NewStaleplan(), "staleplanpos", 9)
	// Three field assignments, six in-place writes (index write, delete,
	// clear, ++, slice element, literal variable rebound to a live model).
	inPlace := 0
	for _, f := range findings {
		if strings.Contains(f.Message, "mutated in place") {
			inPlace++
		}
	}
	if inPlace != 6 {
		t.Fatalf("%d in-place findings, want 6", inPlace)
	}
}

func TestStaleplanNegative(t *testing.T) {
	runFixture(t, NewStaleplan(), "staleplanneg", 0)
}

// TestAllStableOrder pins the production analyzer set and its order, which
// cmd/dnnlint relies on for deterministic output.
func TestAllStableOrder(t *testing.T) {
	var names []string
	for _, a := range All() {
		names = append(names, a.Name())
	}
	want := []string{
		"detrange", "unitsafe", "floateq", "locksafe", "staleplan",
		"allocfree", "goroleak", "httpcontract",
	}
	if len(names) != len(want) {
		t.Fatalf("analyzers = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("analyzers = %v, want %v", names, want)
		}
	}
}

// TestDefaultUnitScope pins the unit-disciplined package set.
func TestDefaultUnitScope(t *testing.T) {
	scope := DefaultUnitScope()
	for _, p := range []string{
		"repro/internal/core", "repro/internal/dataset",
		"repro/internal/fleet", "repro/internal/loadgen", "repro/internal/registry",
	} {
		found := false
		for _, s := range scope {
			if s == p {
				found = true
			}
		}
		if !found {
			t.Errorf("default scope missing %s", p)
		}
	}
}

// TestLoadDirRejectsTestFiles ensures test files never reach analyzers.
func TestLoadDirRejectsTestFiles(t *testing.T) {
	pass := loadFixture(t, "floateqpos")
	for _, f := range pass.Files {
		name := fixtureFset.Position(f.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") {
			t.Fatalf("loader admitted test file %s", name)
		}
	}
	if pass.Pkg == nil || pass.Info == nil {
		t.Fatal("pass missing type information")
	}
	var _ *types.Info = pass.Info
}
