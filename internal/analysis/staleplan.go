package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
)

// Staleplan guards the coherence between fitted models and their compiled
// prediction plans. KWModel and IGKWModel cache compiled Plans (and the
// mapping-batch set plan compilation reads) keyed on the current coefficient
// structure; the blessed mutators (Fit*, ObserveRecords and the rebuild
// helpers they call) invalidate those caches after every coefficient change.
// A write to a coefficient field from anywhere else silently leaves stale
// plans serving predictions from the old coefficients.
//
// Two kinds of write are checked: assigning a coefficient field
// (m.Mapping = …), and mutating its contents in place — an index write
// (m.Mapping[k] = v, m.Groups[i].Line = l, m.GroupOf[k]++) or a delete/clear
// of the map. Constructing a fresh model is fine — a new model has no cache
// to go stale — so the composite literal itself is never flagged, and
// in-place writes into a variable that is only ever assigned composite
// literals in the same function (IGKWBase.Resolve filling the maps of the
// model it just built) are exempt.
type Staleplan struct{}

// NewStaleplan returns the analyzer.
func NewStaleplan() *Staleplan { return &Staleplan{} }

// Name implements Analyzer.
func (*Staleplan) Name() string { return "staleplan" }

// Doc implements Analyzer.
func (*Staleplan) Doc() string {
	return "model coefficient mutation outside the blessed mutators (stale compiled plans)"
}

// coefficientFields lists, per guarded model type, the fields that feed
// compiled plans.
var coefficientFields = map[string]map[string]bool{
	"KWModel": {
		"Classif": true, "Groups": true, "GroupOf": true, "Mapping": true,
		"Families": true, "ClassFallback": true,
	},
	"IGKWModel": {
		"Lines": true, "DriverOf": true, "Mapping": true,
		"FamilyLines": true, "FamilyDriver": true, "ClassFallback": true,
	},
}

// blessedName matches functions allowed to mutate coefficients: the fitting
// entry points and the online-update rebuild chain.
var blessedName = regexp.MustCompile(`^(Fit|fit)`)

// blessedExact are additional allowed mutators by exact name: the online
// observation fold and the rebuild chain it triggers (ObserveRecords →
// rebuildFromAccumulators), plus the fit-time seeding of the online state.
var blessedExact = map[string]bool{
	"ObserveRecords":          true,
	"initOnline":              true,
	"rebuildFromAccumulators": true,
}

// Run implements Analyzer.
func (a *Staleplan) Run(p *Pass) []Finding {
	var findings []Finding
	for _, fd := range funcDecls(p) {
		name := fd.Name.Name
		if blessedName.MatchString(name) || blessedExact[name] {
			continue
		}
		fresh := freshModels(p, fd.Body)
		check := func(n ast.Node, target ast.Expr, inPlace bool) {
			sel, indexed := guardedField(p, target)
			if sel == nil {
				return
			}
			model := guardedModelName(p, sel.X)
			if !inPlace && !indexed {
				reportf(p, &findings, a.Name(), n,
					"%s.%s assigned outside the blessed mutators (Fit*, ObserveRecords, rebuildFromAccumulators); compiled plans are not invalidated and will serve stale coefficients",
					model, sel.Sel.Name)
				return
			}
			if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && fresh[p.Info.ObjectOf(id)] {
				return // filling a model built from a literal in this function
			}
			reportf(p, &findings, a.Name(), n,
				"%s.%s mutated in place outside the blessed mutators (Fit*, ObserveRecords, rebuildFromAccumulators); compiled plans and cached mapping batches are not invalidated and will serve stale coefficients",
				model, sel.Sel.Name)
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range s.Lhs {
					check(s, lhs, false)
				}
			case *ast.IncDecStmt:
				check(s, s.X, false)
			case *ast.CallExpr:
				if id, ok := s.Fun.(*ast.Ident); ok && (id.Name == "delete" || id.Name == "clear") && len(s.Args) > 0 {
					if _, builtin := p.Info.Uses[id].(*types.Builtin); builtin {
						check(s, s.Args[0], true)
					}
				}
			}
			return true
		})
	}
	return findings
}

// guardedField finds the coefficient-field selector a write target lands in
// — m.Mapping for m.Mapping, m.Mapping[k] and m.Groups[i].Line — and
// reports whether the write goes through an index (in place) rather than
// replacing the field. It returns nil when the target touches no
// coefficient field of a guarded model.
func guardedField(p *Pass, e ast.Expr) (sel *ast.SelectorExpr, indexed bool) {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			if model := guardedModelName(p, x.X); model != "" && coefficientFields[model][x.Sel.Name] {
				return x, indexed
			}
			e = x.X
		case *ast.IndexExpr:
			indexed = true
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil, false
		}
	}
}

// freshModels returns the local variables of body that are only ever
// assigned composite literals (m := &IGKWModel{…}): models built here, whose
// caches are empty, so filling their coefficient maps cannot stale a plan.
// A variable with any other assignment — a parameter-derived value, a call
// result, a range variable — is excluded.
func freshModels(p *Pass, body *ast.BlockStmt) map[types.Object]bool {
	lit := map[types.Object]bool{}
	other := map[types.Object]bool{}
	note := func(id *ast.Ident, rhs ast.Expr) {
		obj := p.Info.ObjectOf(id)
		if obj == nil {
			return
		}
		if u, ok := ast.Unparen(rhs).(*ast.UnaryExpr); ok && u.Op == token.AND {
			rhs = u.X
		}
		if _, ok := ast.Unparen(rhs).(*ast.CompositeLit); ok {
			lit[obj] = true
		} else {
			other[obj] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range s.Lhs {
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
					var rhs ast.Expr
					if len(s.Rhs) == len(s.Lhs) {
						rhs = s.Rhs[i]
					}
					note(id, rhs)
				}
			}
		case *ast.ValueSpec:
			for i, id := range s.Names {
				var rhs ast.Expr
				if len(s.Values) == len(s.Names) {
					rhs = s.Values[i]
				}
				note(id, rhs)
			}
		case *ast.RangeStmt:
			for _, e := range []ast.Expr{s.Key, s.Value} {
				if id, ok := e.(*ast.Ident); ok {
					note(id, nil)
				}
			}
		}
		return true
	})
	for obj := range other {
		delete(lit, obj)
	}
	return lit
}

// guardedModelName returns "KWModel"/"IGKWModel" when expr's type (after
// pointer indirection) is a guarded model type, else "".
func guardedModelName(p *Pass, expr ast.Expr) string {
	tv, ok := p.Info.Types[expr]
	if !ok {
		return ""
	}
	t := tv.Type
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	if name := named.Obj().Name(); coefficientFields[name] != nil {
		return name
	}
	return ""
}
