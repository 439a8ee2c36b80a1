package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Detrange guards the repository's determinism contract: fitting, refitting
// and serialization must be bit-identical across runs. Go deliberately
// randomizes map iteration order, and float addition is not associative, so
// any loop that ranges a map while (a) accumulating floats, (b) appending to
// a slice that survives the loop, or (c) merging statistics accumulators
// produces run-dependent results. Such loops must iterate a sorted key
// slice instead (see sortedStringKeys in internal/core).
//
// Suppression: the sort-after idiom — appending a map's keys to a slice and
// sorting that slice later in the same function — is exactly the sanctioned
// fix, so an append whose target is subsequently passed to a sort call is
// not reported.
//
// The same contract also bans math/rand's process-global source: package-
// level rand.Intn/Float64/Shuffle/... draw from a shared, unseedable stream
// whose values depend on every other draw in the process, so results cannot
// be reproduced from an instance seed. Constructors (rand.New,
// rand.NewSource, ...) and methods on an explicit *rand.Rand are the
// sanctioned alternative and are not reported.
type Detrange struct{}

// NewDetrange returns the analyzer.
func NewDetrange() *Detrange { return &Detrange{} }

// Name implements Analyzer.
func (*Detrange) Name() string { return "detrange" }

// Doc implements Analyzer.
func (*Detrange) Doc() string {
	return "order-sensitive work inside a range over a map (nondeterministic iteration); math/rand global-source draws"
}

// accumulatorMethods are method names treated as order-sensitive statistic
// folds when invoked inside a map range: a running-sums accumulator's Add
// and Merge fold floats, so their results depend on the call order.
var accumulatorMethods = map[string]bool{"Add": true, "Merge": true}

// writerMethods are serialization calls whose output order becomes the map's
// iteration order.
var writerMethods = map[string]bool{
	"Write": true, "WriteString": true, "Encode": true,
	"Fprintf": true, "Fprintln": true, "Fprint": true,
	"Printf": true, "Println": true, "Print": true,
}

// Run implements Analyzer.
func (a *Detrange) Run(p *Pass) []Finding {
	var findings []Finding
	for _, fd := range funcDecls(p) {
		a.checkFunc(p, fd, &findings)
	}
	return findings
}

// checkFunc inspects one function for map ranges with order-sensitive
// bodies and for global-source randomness.
func (a *Detrange) checkFunc(p *Pass, fd *ast.FuncDecl, findings *[]Finding) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			a.checkGlobalRand(p, call, findings)
		}
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := p.Info.Types[rng.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap && !isMapIterator(p, rng.X) {
			return true
		}
		a.checkMapRange(p, fd, rng, findings)
		return true
	})
}

// isMapIterator reports whether the range operand is a maps.Keys /
// maps.Values / maps.All iterator — ranging one of those visits entries in
// the same randomized order as ranging the map directly.
func isMapIterator(p *Pass, x ast.Expr) bool {
	call, ok := unparen(x).(*ast.CallExpr)
	if !ok {
		return false
	}
	fn := calleeFunc(p, unparen(call.Fun))
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "maps" {
		return false
	}
	switch fn.Name() {
	case "Keys", "Values", "All":
		return true
	}
	return false
}

// checkGlobalRand flags package-level math/rand (and math/rand/v2) calls:
// they draw from the process-global source, so values depend on unrelated
// draws anywhere in the program and no instance seed can reproduce a run.
// Constructors (New, NewSource, NewZipf, ...) build explicit seeded
// generators — the sanctioned idiom — and methods on *rand.Rand have a
// receiver, so neither is reported.
func (a *Detrange) checkGlobalRand(p *Pass, call *ast.CallExpr, findings *[]Finding) {
	fn := calleeFunc(p, unparen(call.Fun))
	if fn == nil || fn.Pkg() == nil {
		return
	}
	path := fn.Pkg().Path()
	if path != "math/rand" && path != "math/rand/v2" {
		return
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return // methods on an explicit generator are fine
	}
	if strings.HasPrefix(fn.Name(), "New") {
		return // constructors of seeded generators are the fix, not the bug
	}
	reportf(p, findings, a.Name(), call,
		"%s.%s draws from the process-global random source; results depend on unrelated draws and no seed reproduces them — use a per-instance rand.New(rand.NewSource(seed))",
		path, fn.Name())
}

// checkMapRange reports order-sensitive statements inside one map range.
func (a *Detrange) checkMapRange(p *Pass, fd *ast.FuncDecl, rng *ast.RangeStmt, findings *[]Finding) {
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			a.checkAssign(p, fd, rng, s, findings)
		case *ast.CallExpr:
			a.checkCall(p, rng, s, findings)
		}
		return true
	})
}

// checkAssign flags float compound accumulation into loop-outer variables
// and appends to loop-outer slices (unless sorted afterwards).
func (a *Detrange) checkAssign(p *Pass, fd *ast.FuncDecl, rng *ast.RangeStmt, s *ast.AssignStmt, findings *[]Finding) {
	switch s.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		for _, lhs := range s.Lhs {
			tv, ok := p.Info.Types[lhs]
			if !ok || !isFloat(tv.Type) {
				continue
			}
			if obj := a.outerObject(p, rng, lhs); obj != nil {
				reportf(p, findings, a.Name(), s,
					"float accumulation into %q while ranging a map: iteration order is random and float addition is not associative; range sorted keys instead",
					obj.Name())
			}
		}
	case token.ASSIGN, token.DEFINE:
		for i, rhs := range s.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok || !isBuiltinAppend(p, call) || i >= len(s.Lhs) {
				continue
			}
			obj := a.outerObject(p, rng, s.Lhs[i])
			if obj == nil {
				continue
			}
			if sortedAfter(p, fd, rng, obj) {
				continue // append-then-sort idiom: the sanctioned fix
			}
			reportf(p, findings, a.Name(), s,
				"append to %q while ranging a map: element order is random across runs; range sorted keys or sort %q afterwards",
				obj.Name(), obj.Name())
		}
	}
}

// checkCall flags accumulator folds and serialized writes inside the range.
func (a *Detrange) checkCall(p *Pass, rng *ast.RangeStmt, call *ast.CallExpr, findings *[]Finding) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	name := sel.Sel.Name
	switch {
	case accumulatorMethods[name]:
		// Only flag folds into state that outlives the loop.
		if obj := a.outerObject(p, rng, sel.X); obj != nil {
			reportf(p, findings, "detrange", call,
				"%s.%s inside a range over a map folds statistics in random order; iterate sorted keys so the accumulated floats are bit-identical across runs",
				obj.Name(), name)
		}
	case writerMethods[name]:
		reportf(p, findings, "detrange", call,
			"%s call inside a range over a map serializes entries in random order; iterate sorted keys", name)
	}
}

// outerObject resolves expr's root identifier to its object if that object
// is declared outside the range statement (i.e. survives the loop).
// Returns nil for loop-local variables and unresolvable expressions.
func (a *Detrange) outerObject(p *Pass, rng *ast.RangeStmt, expr ast.Expr) types.Object {
	id := rootIdent(expr)
	if id == nil {
		return nil
	}
	obj := p.Info.Uses[id]
	if obj == nil {
		obj = p.Info.Defs[id]
	}
	if obj == nil || obj.Pos() == token.NoPos {
		return nil
	}
	if obj.Pos() >= rng.Pos() && obj.Pos() < rng.End() {
		return nil // declared inside the loop (including the key/value vars)
	}
	return obj
}

// isBuiltinAppend reports whether call invokes the append builtin.
func isBuiltinAppend(p *Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	_, isBuiltin := p.Info.Uses[id].(*types.Builtin)
	return isBuiltin
}

// sortedAfter reports whether, after the range statement, the function calls
// a sort function (sort.* or any function whose name begins with "sort" or
// "Sort") passing the accumulated slice — the append-then-sort idiom.
func sortedAfter(p *Pass, fd *ast.FuncDecl, rng *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		if !isSortCall(call) {
			return true
		}
		for _, arg := range call.Args {
			if id := rootIdent(arg); id != nil {
				if p.Info.Uses[id] == obj {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}

// isSortCall recognizes sort.X calls and sort-prefixed helper functions.
func isSortCall(call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok && id.Name == "sort" {
			return true
		}
		return strings.HasPrefix(fun.Sel.Name, "Sort") || strings.HasPrefix(fun.Sel.Name, "sort")
	case *ast.Ident:
		return strings.HasPrefix(fun.Name, "Sort") || strings.HasPrefix(fun.Name, "sort")
	}
	return false
}
