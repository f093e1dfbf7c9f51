// Package errcheck flags silently dropped error returns in the packages
// PkgPrefixes lists (the one statement of its scope; Analyzer.Doc is built
// from it). An ignored error must either be handled or explicitly discarded
// with `_ = f()` (with a comment saying why), which this analyzer accepts.
//
// Printing to the process's own stdout/stderr via fmt.Print/Printf/Println
// is exempt — the conventional Go posture — but fmt.Fprintf to a file,
// flusher Close/Flush and friends are not.
package errcheck

import (
	"go/ast"
	"go/types"
	"strings"

	"pcpda/internal/lint"
)

// PkgPrefixes select the packages checked. cmd binaries and the experiment
// report generators write the committed artifacts; the network-service
// packages hold sockets and transactions, where a swallowed error means a
// leaked session or a desynced protocol stream.
var PkgPrefixes = []string{
	"pcpda/cmd/",
	"pcpda/internal/experiments",
	"pcpda/internal/wire",
	"pcpda/internal/server",
	"pcpda/internal/client",
	"pcpda/internal/nemesis",
}

// Analyzer is the errcheck analyzer.
var Analyzer = &lint.Analyzer{
	Name: "errcheck",
	Doc: strings.ReplaceAll(strings.Join(PkgPrefixes, ", "), "pcpda/", "") +
		" must not silently drop error returns; handle them or discard with an explicit `_ =`",
	Run: run,
}

func run(pass *lint.Pass) error {
	match := false
	for _, p := range PkgPrefixes {
		if strings.HasPrefix(pass.PkgPath, p) || pass.PkgPath == strings.TrimSuffix(p, "/") {
			match = true
		}
	}
	if !match {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					checkDropped(pass, call, "")
				}
			case *ast.DeferStmt:
				checkDropped(pass, n.Call, "defer ")
			case *ast.GoStmt:
				checkDropped(pass, n.Call, "go ")
			}
			return true
		})
	}
	return nil
}

// checkDropped reports a call whose error result vanishes.
func checkDropped(pass *lint.Pass, call *ast.CallExpr, prefix string) {
	t := pass.TypesInfo.TypeOf(call)
	if t == nil || !returnsError(t) {
		return
	}
	if exempt(pass, call) {
		return
	}
	pass.Reportf(call.Pos(), "%s%s drops its error result; handle it or discard explicitly with `_ =` and a comment", prefix, calleeLabel(call))
}

// returnsError reports whether the call's result (or last tuple element)
// is the error type.
func returnsError(t types.Type) bool {
	if tup, ok := t.(*types.Tuple); ok {
		if tup.Len() == 0 {
			return false
		}
		t = tup.At(tup.Len() - 1).Type()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil
}

// exempt allows fmt printing to the process streams, whose error is
// conventionally ignored in Go.
func exempt(pass *lint.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pkgName, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
	if !ok || pkgName.Imported().Path() != "fmt" {
		return false
	}
	switch sel.Sel.Name {
	case "Print", "Printf", "Println":
		return true
	case "Fprint", "Fprintf", "Fprintln":
		// Exempt only when writing to os.Stdout / os.Stderr.
		if len(call.Args) == 0 {
			return false
		}
		if wsel, ok := call.Args[0].(*ast.SelectorExpr); ok {
			if wid, ok := wsel.X.(*ast.Ident); ok {
				if wpkg, ok := pass.TypesInfo.Uses[wid].(*types.PkgName); ok && wpkg.Imported().Path() == "os" {
					return wsel.Sel.Name == "Stdout" || wsel.Sel.Name == "Stderr"
				}
			}
		}
	}
	return false
}

func calleeLabel(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			return id.Name + "." + fun.Sel.Name
		}
		return fun.Sel.Name
	default:
		return "call"
	}
}
