package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// The allocfree analyzer statically proves the repository's declared hot
// paths stay allocation-free. Functions annotated with a
//
//	//dnnperf:allocfree
//
// doc-comment directive (the compiled-plan predict path, the cache hit
// path, the serve /predict renderer) are checked for every construct that
// forces the Go compiler to allocate:
//
//   - append without preallocated-capacity evidence (the base must slice an
//     array, be a v[:0]/full-slice expression, or be a variable built in the
//     same function from a capacity-carrying make or array slice)
//   - map and slice composite literals, and &T{...} struct-pointer literals
//   - closures that capture enclosing variables
//   - conversions of non-pointer-shaped values to interface types
//     (explicit conversions, call arguments, assignments and returns)
//   - fmt.* calls, string concatenation, and string<->[]byte conversions
//   - calls into functions that are neither annotated (same package) nor on
//     the explicit whitelist of known-allocation-free callees
//
// make and new are deliberately not flagged: the capacity evidence rule
// presupposes that sized allocation at setup time is fine — the invariant
// guards the steady state, not initialization.
//
// The call rule is transitive one level by construction: an annotated
// function may only call annotated or whitelisted functions, and every
// annotated function is itself checked, so allocation-freedom propagates
// across the whole annotated call graph. Calls through function values or
// non-type-parameter interface methods cannot be proven and are flagged;
// type-parameter constraint methods (the cache's key.Hash()) are allowed
// because every instantiation in this repository is a leaf value method.

// AllocfreeDirective is the doc-comment annotation that opts a function
// into the allocfree check.
const AllocfreeDirective = "//dnnperf:allocfree"

const allocfreeName = "allocfree"

// Allocfree checks //dnnperf:allocfree functions for allocation-forcing
// constructs.
type Allocfree struct {
	whitelist map[string]bool
}

// NewAllocfree returns the analyzer with the given callee whitelist; each
// entry is "pkgpath.Func" or "pkgpath.Type.Method".
func NewAllocfree(whitelist []string) *Allocfree {
	m := make(map[string]bool, len(whitelist))
	for _, w := range whitelist {
		m[w] = true
	}
	return &Allocfree{whitelist: m}
}

// DefaultAllocWhitelist lists the callees the repository's hot paths are
// allowed to reach without an annotation: stdlib primitives that are
// documented (and benchmarked here) not to allocate, plus the handful of
// internal leaf methods the predict path crosses package boundaries for.
func DefaultAllocWhitelist() []string {
	return []string{
		// strconv's append family writes into the caller's buffer.
		"strconv.AppendInt",
		"strconv.AppendUint",
		"strconv.AppendFloat",
		"strconv.AppendBool",
		"strconv.AppendQuote",
		"strconv.Atoi",
		// Locks, waitgroups, pools and atomics.
		"sync.Mutex.Lock",
		"sync.Mutex.Unlock",
		"sync.RWMutex.Lock",
		"sync.RWMutex.Unlock",
		"sync.RWMutex.RLock",
		"sync.RWMutex.RUnlock",
		"sync.WaitGroup.Add",
		"sync.WaitGroup.Done",
		"sync.WaitGroup.Wait",
		"sync.Pool.Get",
		"sync.Pool.Put",
		"sync.Once.Do",
		"sync/atomic.Int64.Add",
		"sync/atomic.Int64.Load",
		"sync/atomic.Int64.Store",
		"sync/atomic.Uint64.Add",
		"sync/atomic.Uint64.Load",
		"sync/atomic.Bool.Load",
		"sync/atomic.Pointer.Load",
		// bytes.Buffer writes amortize into the pooled buffer.
		"bytes.Buffer.Write",
		"bytes.Buffer.WriteString",
		"bytes.Buffer.WriteByte",
		"bytes.Buffer.Reset",
		"bytes.Buffer.Bytes",
		"bytes.Buffer.Len",
		// Allocation-free string scanning.
		"strings.Index",
		"strings.IndexByte",
		"strings.HasPrefix",
		"strings.HasSuffix",
		"strings.TrimSpace",
		// Monotonic clock reads for stage attribution.
		"time.Now",
		"time.Time.IsZero",
		"time.Time.Sub",
		"time.Duration.Seconds",
		// Internal leaf methods of the predict path.
		"repro/internal/regression.Line.Predict",
		"repro/internal/units.Seconds.Float64",
		"repro/internal/units.Seconds.IsNaN",
		"repro/internal/obs.StartTimer",
		"repro/internal/obs.Timer.Stop",
		"repro/internal/obs.Counter.Inc",
		"repro/internal/obs.Counter.Add",
		"repro/internal/obs.Enabled",
		"repro/internal/obs.ParseTraceparent",
		"repro/internal/obs.Histogram.Observe",
		"repro/internal/cache.Sharded.Get",
		"repro/internal/registry.Registry.Current",
		"repro/internal/rng.NewFNV",
		"repro/internal/rng.FNV.Str",
		"repro/internal/rng.FNV.Word",
	}
}

// Name implements Analyzer.
func (a *Allocfree) Name() string { return allocfreeName }

// Doc implements Analyzer.
func (a *Allocfree) Doc() string {
	return "//dnnperf:allocfree functions must not contain allocation-forcing constructs"
}

// Run implements Analyzer.
func (a *Allocfree) Run(p *Pass) []Finding {
	annotated := map[types.Object]bool{}
	var checked []*ast.FuncDecl
	for _, fd := range funcDecls(p) {
		if !hasDirective(fd.Doc, AllocfreeDirective) {
			continue
		}
		if obj := p.Info.Defs[fd.Name]; obj != nil {
			annotated[obj] = true
		}
		checked = append(checked, fd)
	}
	var findings []Finding
	for _, fd := range checked {
		a.checkFunc(p, fd, annotated, &findings)
	}
	return findings
}

// checkFunc walks one annotated function body.
func (a *Allocfree) checkFunc(p *Pass, fd *ast.FuncDecl, annotated map[types.Object]bool, findings *[]Finding) {
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			if capturesVariables(p, fd, x) {
				reportf(p, findings, allocfreeName, x,
					"closure captures enclosing variables and may heap-allocate in %s", fd.Name.Name)
			} else {
				reportf(p, findings, allocfreeName, x,
					"function literal forces an allocation when it escapes in %s", fd.Name.Name)
			}
			return false // the literal's body runs under its own rules
		case *ast.UnaryExpr:
			if _, ok := unparen(x.X).(*ast.CompositeLit); ok && x.Op == token.AND {
				reportf(p, findings, allocfreeName, x,
					"&-composite literal heap-allocates in %s", fd.Name.Name)
				return false
			}
		case *ast.CompositeLit:
			if t := p.Info.Types[x].Type; t != nil {
				switch t.Underlying().(type) {
				case *types.Map:
					reportf(p, findings, allocfreeName, x, "map literal allocates in %s", fd.Name.Name)
				case *types.Slice:
					reportf(p, findings, allocfreeName, x, "slice literal allocates in %s", fd.Name.Name)
				}
			}
		case *ast.BinaryExpr:
			if x.Op.String() == "+" && isNonConstString(p, x) {
				reportf(p, findings, allocfreeName, x,
					"string concatenation allocates in %s", fd.Name.Name)
			}
		case *ast.AssignStmt:
			a.checkAssign(p, fd, x, findings)
		case *ast.ReturnStmt:
			a.checkReturn(p, fd, x, findings)
		case *ast.CallExpr:
			a.checkCall(p, fd, x, annotated, findings)
		}
		return true
	}
	ast.Inspect(fd.Body, walk)
}

// checkCall classifies one call: conversion, builtin, or function call.
func (a *Allocfree) checkCall(p *Pass, fd *ast.FuncDecl, call *ast.CallExpr, annotated map[types.Object]bool, findings *[]Finding) {
	fun := unparen(call.Fun)
	if tv, ok := p.Info.Types[fun]; ok && tv.IsType() {
		a.checkConversion(p, fd, call, tv.Type, findings)
		return
	}
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := p.Info.Uses[id].(*types.Builtin); ok {
			if b.Name() == "append" {
				a.checkAppend(p, fd, call, findings)
			}
			return
		}
	}
	callee := calleeFunc(p, fun)
	switch {
	case callee == nil:
		if sel, ok := fun.(*ast.SelectorExpr); ok && isTypeParamMethod(p, sel) {
			break // constraint method on a type parameter: leaf by convention
		}
		reportf(p, findings, allocfreeName, call,
			"call through a function value or interface cannot be proven allocation-free in %s", fd.Name.Name)
		return
	case callee.Pkg() == p.Pkg:
		if !annotated[callee.Origin()] {
			reportf(p, findings, allocfreeName, call,
				"%s calls %s, which is not annotated %s", fd.Name.Name, callee.Name(), AllocfreeDirective)
		}
	default:
		name := qualifiedFuncName(callee)
		if name == "" {
			break // type-parameter method resolved through the constraint
		}
		if strings.HasPrefix(name, "fmt.") {
			reportf(p, findings, allocfreeName, call,
				"fmt call allocates in %s", fd.Name.Name)
			return
		}
		if !a.whitelist[name] {
			reportf(p, findings, allocfreeName, call,
				"%s calls %s, which is not on the allocfree whitelist", fd.Name.Name, name)
		}
	}
	a.checkCallArgs(p, fd, call, findings)
}

// checkConversion flags conversions that allocate: non-pointer-shaped
// values boxed into interfaces, and string<->[]byte/[]rune copies.
func (a *Allocfree) checkConversion(p *Pass, fd *ast.FuncDecl, call *ast.CallExpr, target types.Type, findings *[]Finding) {
	if len(call.Args) != 1 {
		return
	}
	arg := call.Args[0]
	if types.IsInterface(target) {
		if boxes(p, arg) {
			reportf(p, findings, allocfreeName, call,
				"conversion of a non-pointer value to an interface allocates in %s", fd.Name.Name)
		}
		return
	}
	src := p.Info.Types[arg].Type
	if src == nil {
		return
	}
	tb, tOk := target.Underlying().(*types.Basic)
	_, sSlice := src.Underlying().(*types.Slice)
	if tOk && tb.Info()&types.IsString != 0 && sSlice {
		reportf(p, findings, allocfreeName, call,
			"[]byte-to-string conversion copies and allocates in %s", fd.Name.Name)
		return
	}
	sb, sOk := src.Underlying().(*types.Basic)
	_, tSlice := target.Underlying().(*types.Slice)
	if sOk && sb.Info()&types.IsString != 0 && tSlice {
		reportf(p, findings, allocfreeName, call,
			"string-to-slice conversion copies and allocates in %s", fd.Name.Name)
	}
}

// checkCallArgs flags arguments boxed into interface-typed parameters.
func (a *Allocfree) checkCallArgs(p *Pass, fd *ast.FuncDecl, call *ast.CallExpr, findings *[]Finding) {
	tv, ok := p.Info.Types[unparen(call.Fun)]
	if !ok || tv.Type == nil {
		return
	}
	sig, ok := tv.Type.(*types.Signature)
	if !ok || call.Ellipsis.IsValid() {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if types.IsInterface(pt) && boxes(p, arg) {
			reportf(p, findings, allocfreeName, arg,
				"passing a non-pointer value as an interface argument allocates in %s", fd.Name.Name)
		}
	}
}

// checkAssign flags plain assignments that box a value into an
// interface-typed destination.
func (a *Allocfree) checkAssign(p *Pass, fd *ast.FuncDecl, as *ast.AssignStmt, findings *[]Finding) {
	switch as.Tok.String() {
	case "+=":
		if len(as.Lhs) == 1 && isStringType(p.Info.Types[as.Lhs[0]].Type) {
			reportf(p, findings, allocfreeName, as,
				"string concatenation allocates in %s", fd.Name.Name)
		}
		return
	case "=":
	default:
		return
	}
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		lt := p.Info.Types[lhs].Type
		if lt != nil && types.IsInterface(lt) && boxes(p, as.Rhs[i]) {
			reportf(p, findings, allocfreeName, as.Rhs[i],
				"assigning a non-pointer value to an interface allocates in %s", fd.Name.Name)
		}
	}
}

// checkReturn flags returns that box a value into an interface result.
func (a *Allocfree) checkReturn(p *Pass, fd *ast.FuncDecl, ret *ast.ReturnStmt, findings *[]Finding) {
	results := fd.Type.Results
	if results == nil || ret.Results == nil {
		return
	}
	var resultTypes []types.Type
	for _, field := range results.List {
		t := p.Info.Types[field.Type].Type
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		for j := 0; j < n; j++ {
			resultTypes = append(resultTypes, t)
		}
	}
	if len(ret.Results) != len(resultTypes) {
		return // return f() forwarding; the call is checked on its own
	}
	for i, r := range ret.Results {
		if resultTypes[i] != nil && types.IsInterface(resultTypes[i]) && boxes(p, r) {
			reportf(p, findings, allocfreeName, r,
				"returning a non-pointer value as an interface allocates in %s", fd.Name.Name)
		}
	}
}

// checkAppend requires capacity evidence on an append's base slice.
func (a *Allocfree) checkAppend(p *Pass, fd *ast.FuncDecl, call *ast.CallExpr, findings *[]Finding) {
	if len(call.Args) == 0 {
		return
	}
	if !a.appendEvidence(p, fd, call.Args[0]) {
		reportf(p, findings, allocfreeName, call,
			"append without preallocated-capacity evidence may grow and allocate in %s", fd.Name.Name)
	}
}

// appendEvidence reports whether base visibly carries preallocated
// capacity: it slices an array, is a v[:0] or full-slice expression, or is
// a variable assigned in this function from a capacity-carrying make or an
// array slice.
func (a *Allocfree) appendEvidence(p *Pass, fd *ast.FuncDecl, base ast.Expr) bool {
	base = unparen(base)
	if se, ok := base.(*ast.SliceExpr); ok {
		if se.Slice3 {
			return true
		}
		if slicesArray(p, se.X) {
			return true
		}
		if isConstZeroExpr(p, se.High) && (se.Low == nil || isConstZeroExpr(p, se.Low)) {
			return true
		}
	}
	id := rootIdent(base)
	if id == nil {
		return false
	}
	obj := p.Info.Uses[id]
	if obj == nil {
		obj = p.Info.Defs[id]
	}
	if obj == nil {
		return false
	}
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			lid, ok := unparen(lhs).(*ast.Ident)
			if !ok {
				continue
			}
			if p.Info.Defs[lid] != obj && p.Info.Uses[lid] != obj {
				continue
			}
			if rhsCarriesCapacity(p, unparen(as.Rhs[i])) {
				found = true
			}
		}
		return true
	})
	return found
}

// rhsCarriesCapacity reports whether an assignment source visibly sizes
// its result: make with an explicit capacity, or any array slice.
func rhsCarriesCapacity(p *Pass, rhs ast.Expr) bool {
	switch x := rhs.(type) {
	case *ast.CallExpr:
		if id, ok := unparen(x.Fun).(*ast.Ident); ok {
			if b, ok := p.Info.Uses[id].(*types.Builtin); ok && b.Name() == "make" {
				return len(x.Args) >= 3
			}
		}
	case *ast.SliceExpr:
		return slicesArray(p, x.X) || x.Slice3
	}
	return false
}

// slicesArray reports whether e is an array or pointer-to-array, so slicing
// it yields capacity without allocating.
func slicesArray(p *Pass, e ast.Expr) bool {
	t := p.Info.Types[e].Type
	if t == nil {
		return false
	}
	u := t.Underlying()
	if _, ok := u.(*types.Array); ok {
		return true
	}
	if ptr, ok := u.(*types.Pointer); ok {
		_, ok = ptr.Elem().Underlying().(*types.Array)
		return ok
	}
	return false
}

// capturesVariables reports whether lit references any variable declared in
// fd outside the literal itself (including fd's parameters and receiver).
func capturesVariables(p *Pass, fd *ast.FuncDecl, lit *ast.FuncLit) bool {
	captured := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := p.Info.Uses[id].(*types.Var)
		if !ok || obj.IsField() {
			return true
		}
		if obj.Pos() >= fd.Pos() && obj.Pos() < lit.Pos() {
			captured = true
			return false
		}
		return true
	})
	return captured
}

// boxes reports whether storing e in an interface forces a heap
// allocation: its type is concrete and not pointer-shaped, and the value is
// not a constant (constants box from static data).
func boxes(p *Pass, e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	if !ok || tv.Type == nil || tv.Value != nil {
		return false
	}
	t := tv.Type
	if types.IsInterface(t) {
		return false
	}
	if _, ok := t.(*types.TypeParam); ok {
		return false // instantiation-dependent; proven at the instantiation
	}
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false
	case *types.Basic:
		if u.Kind() == types.UnsafePointer || u.Kind() == types.UntypedNil {
			return false
		}
	}
	return true
}

// calleeFunc resolves a call expression's static callee, or nil for calls
// through function values and interfaces.
func calleeFunc(p *Pass, fun ast.Expr) *types.Func {
	switch x := fun.(type) {
	case *ast.Ident:
		if f, ok := p.Info.Uses[x].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel, ok := p.Info.Selections[x]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				if _, ifaceRecv := sel.Recv().Underlying().(*types.Interface); ifaceRecv {
					return nil
				}
				return f
			}
			return nil
		}
		// Package-qualified: pkg.Func.
		if f, ok := p.Info.Uses[x.Sel].(*types.Func); ok {
			return f
		}
	case *ast.IndexExpr: // explicit generic instantiation f[T](...)
		return calleeFunc(p, unparen(x.X))
	case *ast.IndexListExpr:
		return calleeFunc(p, unparen(x.X))
	}
	return nil
}

// isTypeParamMethod reports whether sel is a method call whose receiver is
// a type parameter (resolved through its constraint).
func isTypeParamMethod(p *Pass, sel *ast.SelectorExpr) bool {
	s, ok := p.Info.Selections[sel]
	if !ok {
		return false
	}
	t := s.Recv()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	_, ok = t.(*types.TypeParam)
	return ok
}

// qualifiedFuncName renders fn as "pkgpath.Func" or "pkgpath.Type.Method".
// Returns "" for methods whose receiver is a type parameter.
func qualifiedFuncName(fn *types.Func) string {
	fn = fn.Origin()
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return ""
	}
	if recv := sig.Recv(); recv != nil {
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok {
			return "" // type-parameter receiver
		}
		obj := named.Obj()
		if obj.Pkg() == nil {
			return obj.Name() + "." + fn.Name() // error.Error and friends
		}
		return obj.Pkg().Path() + "." + obj.Name() + "." + fn.Name()
	}
	if fn.Pkg() == nil {
		return fn.Name()
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// unparen strips parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		pe, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = pe.X
	}
}

// isNonConstString reports whether a binary + has string type and at least
// one non-constant operand (constant folding concatenates at compile time).
func isNonConstString(p *Pass, b *ast.BinaryExpr) bool {
	tv, ok := p.Info.Types[b]
	if !ok || !isStringType(tv.Type) {
		return false
	}
	return tv.Value == nil
}

// isStringType reports whether t's underlying type is a string.
func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// isConstZeroExpr reports whether e is a constant zero.
func isConstZeroExpr(p *Pass, e ast.Expr) bool {
	if e == nil {
		return false
	}
	tv, ok := p.Info.Types[e]
	if !ok || tv.Value == nil {
		return false
	}
	v, ok := constant.Int64Val(constant.ToInt(tv.Value))
	return ok && v == 0
}
