package analysis

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

func TestAllocfreePositive(t *testing.T) {
	findings := runFixture(t, NewAllocfree(DefaultAllocWhitelist()), "allocfreepos", 13)
	// One finding per allocation class the fixture stages.
	classes := map[string]bool{
		"append":        false, // append without capacity evidence
		"map literal":   false,
		"slice literal": false,
		"composite":     false, // &struct{} literal
		"closure":       false,
		"interface":     false, // non-pointer boxed into an interface
		"fmt call":      false,
		"concatenation": false,
		"conversion":    false, // string -> []byte
		"helper":        false, // non-annotated same-package callee
	}
	for _, f := range findings {
		for needle := range classes {
			if strings.Contains(f.Message, needle) {
				classes[needle] = true
			}
		}
	}
	for needle, seen := range classes {
		if !seen {
			t.Errorf("no finding mentions %q", needle)
		}
	}
}

func TestAllocfreeNegative(t *testing.T) {
	runFixture(t, NewAllocfree(DefaultAllocWhitelist()), "allocfreeneg", 0)
}

func TestGoroleakPositive(t *testing.T) {
	runFixture(t, NewGoroleak(), "goroleakpos", 3)
}

func TestGoroleakNegative(t *testing.T) {
	runFixture(t, NewGoroleak(), "goroleakneg", 0)
}

func TestHttpcontractPositive(t *testing.T) {
	findings := runFixture(t, NewHttpcontract(), "httpcontractpos", 6)
	classes := map[string]bool{
		"cap":       false, // uncapped body read
		"twice":     false, // double WriteHeader
		"after":     false, // body bytes before the status
		"iteration": false, // status committed inside a loop
	}
	for _, f := range findings {
		for needle := range classes {
			if strings.Contains(f.Message, needle) {
				classes[needle] = true
			}
		}
	}
	for needle, seen := range classes {
		if !seen {
			t.Errorf("no finding mentions %q", needle)
		}
	}
}

func TestHttpcontractNegative(t *testing.T) {
	runFixture(t, NewHttpcontract(), "httpcontractneg", 0)
}

// TestFloateqNamedConstant pins the constant-zero exemption to the constant's
// value, not its spelling: a float-typed named zero is exempt, a nonzero
// named constant is not.
func TestFloateqNamedConstant(t *testing.T) {
	runFixture(t, NewFloateq(), "floateqconst", 1)
}

// TestLocksafeConditionalDefer documents that a defer mu.Unlock() inside one
// branch pairs the Lock: locksafe requires a release somewhere in the
// function, not on every path.
func TestLocksafeConditionalDefer(t *testing.T) {
	runFixture(t, NewLocksafe(), "locksafecond", 0)
}

// TestDetrangeMapIterators pins that ranging maps.Keys/maps.Values is
// treated exactly like ranging the map itself.
func TestDetrangeMapIterators(t *testing.T) {
	runFixture(t, NewDetrange(), "detrangeiter", 2)
}

// TestSuppressions runs detrange over the suppression fixture and applies
// the directives: a well-formed directive silences its finding, a bare
// directive becomes its own finding and silences nothing, and a directive
// naming the wrong analyzer silences nothing.
func TestSuppressions(t *testing.T) {
	pass := loadFixture(t, "suppressfix")
	raw := NewDetrange().Run(pass)
	if len(raw) != 3 {
		for _, f := range raw {
			t.Logf("  %s", f)
		}
		t.Fatalf("pre-suppression findings = %d, want 3", len(raw))
	}
	got := ApplySuppressions(pass, raw)
	var suppress, detrange int
	for _, f := range got {
		switch f.Analyzer {
		case SuppressName:
			suppress++
			if !strings.Contains(f.Message, "reason") {
				t.Errorf("malformed-directive finding does not mention the missing reason: %s", f)
			}
		case "detrange":
			detrange++
		default:
			t.Errorf("unexpected analyzer %q in %s", f.Analyzer, f)
		}
	}
	if suppress != 1 || detrange != 2 {
		for _, f := range got {
			t.Logf("  %s", f)
		}
		t.Fatalf("post-suppression: %d suppress + %d detrange findings, want 1 + 2", suppress, detrange)
	}
}

// TestSuppressionNeverSuppressesItself pins that a bare directive cannot be
// silenced by another directive above it.
func TestSuppressionNeverSuppressesItself(t *testing.T) {
	pass := loadFixture(t, "suppressfix")
	got := ApplySuppressions(pass, nil)
	if len(got) != 1 || got[0].Analyzer != SuppressName {
		t.Fatalf("findings = %v, want exactly the malformed-directive finding", got)
	}
}

func TestWriteSARIF(t *testing.T) {
	findings := []Finding{{
		Analyzer: "allocfree",
		Pos:      token.Position{Filename: filepath.Join("/tmp", "mod", "internal", "core", "plan.go"), Line: 10, Column: 3},
		Message:  `append may allocate ("quoted")`,
	}}
	var buf bytes.Buffer
	if err := WriteSARIF(&buf, All(), findings, filepath.Join("/tmp", "mod")); err != nil {
		t.Fatal(err)
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				Level     string `json:"level"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine   int `json:"startLine"`
							StartColumn int `json:"startColumn"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatalf("SARIF output is not valid JSON: %v\n%s", err, buf.String())
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("version=%q runs=%d, want 2.1.0 / 1", log.Version, len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "dnnlint" {
		t.Errorf("driver name = %q", run.Tool.Driver.Name)
	}
	// One rule per analyzer plus the suppress pseudo-rule.
	if want := len(All()) + 1; len(run.Tool.Driver.Rules) != want {
		t.Errorf("rules = %d, want %d", len(run.Tool.Driver.Rules), want)
	}
	if len(run.Results) != 1 {
		t.Fatalf("results = %d, want 1", len(run.Results))
	}
	res := run.Results[0]
	if res.RuleID != "allocfree" || res.Level != "error" {
		t.Errorf("ruleId=%q level=%q", res.RuleID, res.Level)
	}
	loc := res.Locations[0].PhysicalLocation
	if loc.ArtifactLocation.URI != "internal/core/plan.go" {
		t.Errorf("uri = %q, want module-relative forward-slash path", loc.ArtifactLocation.URI)
	}
	if loc.Region.StartLine != 10 || loc.Region.StartColumn != 3 {
		t.Errorf("region = %+v", loc.Region)
	}
}

func TestWriteFindingsJSON(t *testing.T) {
	findings := []Finding{{
		Analyzer: "goroleak",
		Pos:      token.Position{Filename: filepath.Join("/tmp", "mod", "cmd", "x", "main.go"), Line: 7, Column: 2},
		Message:  "goroutine has no termination path",
	}}
	var buf bytes.Buffer
	if err := WriteFindingsJSON(&buf, findings, filepath.Join("/tmp", "mod")); err != nil {
		t.Fatal(err)
	}
	var got []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("JSON output invalid: %v\n%s", err, buf.String())
	}
	if len(got) != 1 {
		t.Fatalf("entries = %d, want 1", len(got))
	}
	if got[0]["analyzer"] != "goroleak" || got[0]["file"] != "cmd/x/main.go" {
		t.Errorf("entry = %v", got[0])
	}
	if got[0]["line"] != float64(7) {
		t.Errorf("line = %v, want 7", got[0]["line"])
	}
	// Empty slice must serialize as [], not null: consumers iterate it.
	buf.Reset()
	if err := WriteFindingsJSON(&buf, nil, "/tmp"); err != nil {
		t.Fatal(err)
	}
	if s := strings.TrimSpace(buf.String()); s != "[]" {
		t.Errorf("empty findings serialize as %q, want []", s)
	}
}

// TestLoadPackages pins the parallel loader's contract: results come back in
// input order, failures are per-package, and successes carry a usable Pass.
func TestLoadPackages(t *testing.T) {
	pkgs := []PackageDir{
		{Dir: filepath.Join("testdata", "detrangepos"), ImportPath: "detrangepos"},
		{Dir: filepath.Join("testdata", "nosuchdir"), ImportPath: "nosuchdir"},
		{Dir: filepath.Join("testdata", "floateqpos"), ImportPath: "floateqpos"},
	}
	results := LoadPackages(fixtureFset, fixtureImp, pkgs)
	if len(results) != len(pkgs) {
		t.Fatalf("results = %d, want %d", len(results), len(pkgs))
	}
	for i, res := range results {
		if res.ImportPath != pkgs[i].ImportPath {
			t.Errorf("result %d is %q, want %q (order must match input)", i, res.ImportPath, pkgs[i].ImportPath)
		}
	}
	if results[0].Err != nil || results[2].Err != nil {
		t.Fatalf("valid packages failed: %v / %v", results[0].Err, results[2].Err)
	}
	if results[1].Err == nil {
		t.Error("missing directory loaded without error")
	}
	if findings := NewDetrange().Run(results[0].Pass); len(findings) == 0 {
		t.Error("pass from LoadPackages finds nothing in detrangepos")
	}
}

// hotPathAnnotations maps repo-relative files to the functions that must
// carry the //dnnperf:allocfree contract because their steady state is
// benchmarked at 0 allocs/op.
var hotPathAnnotations = map[string][]string{
	"internal/core/plan.go":     {"Predict", "PredictSweepInto", "networkFingerprint", "str", "u64", "num", "flag"},
	"internal/core/model.go":    {"clampTime"},
	"internal/core/kw.go":       {"PredictNetwork", "planFor"},
	"internal/cache/cache.go":   {"Get", "moveToFront", "pushFront", "unlink"},
	"cmd/dnnperf/serve.go":      {"renderPredict", "setHeader", "writeJSONString"},
	"cmd/dnnperf/servetrace.go": {"sampleRequest", "traceOf", "startStages", "mark"},
	"internal/fleet/fleet.go":   {"QueryValue"},
	"internal/sched/localsearch.go": {
		"heapSwap", "siftUp", "siftDown", "heapFix", "maxExcluding",
		"evalMove", "evalSwap", "applySwap",
	},
	"internal/fleetsim/event.go": {
		"reset", "less", "push", "pop", "siftUp", "siftDown", "full", "at",
	},
	"internal/fleetsim/steptable.go": {"At"},
	"internal/fleetsim/sim.go":       {"route", "startBatch"},
	"internal/rng/rng.go":            {"New", "Uint64", "Float64", "Intn", "Mix"},
}

// TestHotPathAnnotationCoverage parses the production hot-path files and
// asserts every 0-allocs/op function declares the allocfree contract, so
// dropping an annotation (or renaming a function away from it) fails here
// even before dnnlint runs.
func TestHotPathAnnotationCoverage(t *testing.T) {
	fset := token.NewFileSet()
	for rel, fns := range hotPathAnnotations {
		path := filepath.Join("..", "..", filepath.FromSlash(rel))
		annotated, err := annotatedFuncNames(fset, path)
		if err != nil {
			t.Fatalf("%s: %v", rel, err)
		}
		for _, fn := range fns {
			if !annotated[fn] {
				t.Errorf("%s: %s lacks the %s directive", rel, fn, AllocfreeDirective)
			}
		}
	}
}

// annotatedFuncNames parses one file (syntax only) and returns the names of
// functions whose doc comment carries the allocfree directive.
func annotatedFuncNames(fset *token.FileSet, path string) (map[string]bool, error) {
	file, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	out := make(map[string]bool)
	for _, decl := range file.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && hasDirective(fd.Doc, AllocfreeDirective) {
			out[fd.Name.Name] = true
		}
	}
	return out, nil
}
