// Package analysis implements the repository's domain-specific static
// analyzers. The prediction pipeline makes promises the type system alone
// cannot state — bit-identical refits regardless of map iteration order,
// unit-coherent arithmetic on seconds/FLOPs/bytes, epsilon-aware float
// comparison, lock hygiene under the sharded caches, and model coefficients
// written only by the fitting constructors. Each promise is encoded as one
// analyzer here, checked over the whole module by cmd/dnnlint, and enforced
// in CI through make verify.
//
// The analyzers are built on the standard library only (go/ast, go/parser,
// go/types); nothing outside the toolchain is imported.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Finding is one invariant violation at a source position.
type Finding struct {
	// Analyzer is the invariant's name (e.g. "detrange").
	Analyzer string
	// Pos locates the violation.
	Pos token.Position
	// Message explains the violation and the expected fix.
	Message string
}

// String renders the finding in the conventional file:line: [name] message
// form used by cmd/dnnlint.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// Pass is one type-checked package presented to the analyzers. Test files
// are excluded by the loader: the invariants guard production behaviour, and
// tests legitimately use exact comparison (e.g. bit-identity assertions).
type Pass struct {
	// Fset maps AST nodes to positions.
	Fset *token.FileSet
	// Files are the package's parsed non-test files.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// Info carries the type-checker's expression and object resolution.
	Info *types.Info
}

// Analyzer is one checked invariant.
type Analyzer interface {
	// Name is the invariant's short name, shown in findings.
	Name() string
	// Doc is a one-line description of what the invariant guards.
	Doc() string
	// Run reports the package's violations.
	Run(p *Pass) []Finding
}

// All returns the production analyzer set with repository-default
// configuration, in stable order.
func All() []Analyzer {
	return []Analyzer{
		NewDetrange(),
		NewUnitsafe(DefaultUnitScope()),
		NewFloateq(),
		NewLocksafe(),
		NewStaleplan(),
		NewAllocfree(DefaultAllocWhitelist()),
		NewGoroleak(),
		NewHttpcontract(),
	}
}

// reportf appends a finding at n's position.
func reportf(p *Pass, findings *[]Finding, name string, n ast.Node, format string, args ...any) {
	*findings = append(*findings, Finding{
		Analyzer: name,
		Pos:      p.Fset.Position(n.Pos()),
		Message:  fmt.Sprintf(format, args...),
	})
}

// isFloat reports whether t's underlying type is a floating-point kind.
func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// rootIdent walks to the base identifier of a selector/index chain:
// a.b.c → a, m[k] → m. Returns nil for expressions with no identifier base
// (function call results, literals).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// funcDecls yields every function declaration in the pass.
func funcDecls(p *Pass) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, f := range p.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				out = append(out, fd)
			}
		}
	}
	return out
}
