// Package lint is a self-contained static-analysis framework for the
// pcpdalint suite (DESIGN.md §10): a minimal mirror of the
// golang.org/x/tools/go/analysis API built on the standard library only
// (go/ast, go/parser, go/types), so the module keeps its zero-dependency
// contract. The Analyzer/Pass/Diagnostic shapes match x/tools closely
// enough that porting an analyzer between the two is mechanical.
//
// The suite exists because PCP-DA's guarantees rest on conventions the
// compiler cannot see: protocol packages reach lock and ceiling state only
// through cc capabilities, the sim kernel stays deterministic so the
// golden-schedule gate means something, the live manager never wakes a
// waiter without its mutex nor sleeps holding it, every shared field is
// touched under its guard, and annotated hot paths do not allocate. Each
// analyzer enforces one of those contracts; two runners apply the list in
// internal/lint/all — the tier-1 meta-test and cmd/pcpdalint.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer describes one static-analysis pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics.
	Name string
	// Doc is the one-paragraph help text (first line is the summary).
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// A Pass presents one package to an analyzer's Run function.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	PkgPath   string
	TypesInfo *types.Info

	// Report records one diagnostic. Analyzers usually call Reportf.
	Report func(Diagnostic)

	// shared is the package's memo table, common to every analyzer's Pass
	// over that package.
	shared map[any]any
}

// Shared returns the value filed under key for this package, calling
// compute the first time any analyzer asks: an analysis several analyzers
// read (flow's lock-state dataflow) runs once per package, not once per
// reader.
func (p *Pass) Shared(key any, compute func() any) any {
	v, ok := p.shared[key]
	if !ok {
		v = compute()
		p.shared[key] = v
	}
	return v
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding, positioned in the analyzed source.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// A Finding is a resolved diagnostic: analyzer name, file position and
// message, ready for printing and sorting.
type Finding struct {
	Analyzer string
	Position token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Position, f.Analyzer, f.Message)
}

// RunAnalyzers applies every analyzer to every package and returns the
// findings sorted by file, line and analyzer. Analyzer errors (as opposed
// to diagnostics) abort the run: they indicate the analysis itself could
// not be trusted, not a finding about the code.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Finding, error) {
	var out []Finding
	for _, pkg := range pkgs {
		shared := map[any]any{}
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Syntax,
				Pkg:       pkg.Types,
				PkgPath:   pkg.PkgPath,
				TypesInfo: pkg.TypesInfo,
				shared:    shared,
			}
			pass.Report = func(d Diagnostic) {
				out = append(out, Finding{
					Analyzer: a.Name,
					Position: pkg.Fset.Position(d.Pos),
					Message:  d.Message,
				})
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", pkg.PkgPath, a.Name, err)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Position.Filename != b.Position.Filename {
			return a.Position.Filename < b.Position.Filename
		}
		if a.Position.Line != b.Position.Line {
			return a.Position.Line < b.Position.Line
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return out, nil
}

// ExprString renders e for a diagnostic: identifiers, selectors, calls and
// index expressions spelled out, anything else as "expression".
func ExprString(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return ExprString(x.X) + "." + x.Sel.Name
	case *ast.CallExpr:
		return ExprString(x.Fun) + "()"
	case *ast.IndexExpr:
		return ExprString(x.X) + "[...]"
	default:
		return "expression"
	}
}
