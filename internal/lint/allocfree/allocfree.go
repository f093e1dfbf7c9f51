// Package allocfree keeps the annotated hot paths allocation-free
// (DESIGN.md §10): functions annotated
//
//	//pcpda:alloc-free
//
// in their doc comment — the live manager's ceiling queries, the lock
// table's EachReader/EachWriter enumerators, the kernel dispatch loop, the
// wire decoder's cursor — are flagged on any construct that can allocate:
// append (backing-array growth), make / new / composite literals,
// variable-capturing closures, interface boxing of concrete values, string
// building and map writes to fresh keys. The check is syntactic; what the
// compiler actually does is held by the exact-allocation test that executes
// each annotated function (DESIGN.md §10 lists them side by side).
package allocfree

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"pcpda/internal/lint"
)

// Marker is the annotation line recognized in a function's doc comment.
const Marker = "//pcpda:alloc-free"

// Analyzer is the allocfree analyzer.
var Analyzer = &lint.Analyzer{
	Name: "allocfree",
	Doc:  "functions annotated //pcpda:alloc-free must not allocate: no append growth, make/new/literals, capturing closures or interface boxing",
	Run:  run,
}

func run(pass *lint.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !annotated(fn) {
				continue
			}
			check(pass, fn)
		}
	}
	return nil
}

func annotated(fn *ast.FuncDecl) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if strings.TrimSpace(c.Text) == Marker {
			return true
		}
	}
	return false
}

func check(pass *lint.Pass, fn *ast.FuncDecl) {
	name := fn.Name.Name
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkCall(pass, name, n)
		case *ast.CompositeLit:
			pass.Reportf(n.Pos(), "%s is annotated %s but builds a composite literal (allocates)", name, Marker)
			return false
		case *ast.FuncLit:
			if caps := captures(pass, fn, n); len(caps) > 0 {
				pass.Reportf(n.Pos(), "%s is annotated %s but a closure captures %s (allocates)", name, Marker, strings.Join(caps, ", "))
			}
			// Still scan the literal body: it runs on the hot path too.
			return true
		case *ast.AssignStmt:
			checkBoxingAssign(pass, name, n)
		case *ast.ValueSpec:
			for i, v := range n.Values {
				if i >= len(n.Names) {
					break
				}
				lt := pass.TypesInfo.TypeOf(n.Names[i])
				if boxes(pass.TypesInfo.TypeOf(v), lt) {
					pass.Reportf(v.Pos(), "%s is annotated %s but boxes %s into interface %s (allocates)", name, Marker, typeString(pass.TypesInfo.TypeOf(v)), typeString(lt))
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isString(pass.TypesInfo.TypeOf(n)) {
				pass.Reportf(n.Pos(), "%s is annotated %s but concatenates strings (allocates)", name, Marker)
			}
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "%s is annotated %s but spawns a goroutine (allocates a stack)", name, Marker)
		}
		return true
	})
}

func checkCall(pass *lint.Pass, name string, call *ast.CallExpr) {
	if id, ok := call.Fun.(*ast.Ident); ok {
		if obj, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
			switch obj.Name() {
			case "append":
				pass.Reportf(call.Pos(), "%s is annotated %s but calls append (may grow the backing array)", name, Marker)
				return
			case "make", "new":
				pass.Reportf(call.Pos(), "%s is annotated %s but calls %s (allocates)", name, Marker, obj.Name())
				return
			}
		}
	}
	// Conversions like string(b) or []byte(s) allocate.
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		to := tv.Type
		if len(call.Args) == 1 {
			from := pass.TypesInfo.TypeOf(call.Args[0])
			if allocatingConversion(from, to) {
				pass.Reportf(call.Pos(), "%s is annotated %s but converts %s to %s (allocates)", name, Marker, typeString(from), typeString(to))
			}
		}
		return
	}
	checkBoxingCall(pass, name, call)
}

// checkBoxingCall flags concrete values passed to interface parameters.
func checkBoxingCall(pass *lint.Pass, name string, call *ast.CallExpr) {
	sigT := pass.TypesInfo.TypeOf(call.Fun)
	if sigT == nil {
		return
	}
	sig, ok := sigT.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis != token.NoPos {
				continue // s... passes the slice through, no per-element box
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if boxes(pass.TypesInfo.TypeOf(arg), pt) {
			pass.Reportf(arg.Pos(), "%s is annotated %s but boxes %s into interface %s (allocates)", name, Marker, typeString(pass.TypesInfo.TypeOf(arg)), typeString(pt))
		}
	}
}

// checkBoxingAssign flags concrete-to-interface assignments.
func checkBoxingAssign(pass *lint.Pass, name string, as *ast.AssignStmt) {
	for i, lhs := range as.Lhs {
		if i >= len(as.Rhs) {
			break
		}
		lt := pass.TypesInfo.TypeOf(lhs)
		if boxes(pass.TypesInfo.TypeOf(as.Rhs[i]), lt) {
			pass.Reportf(as.Rhs[i].Pos(), "%s is annotated %s but boxes %s into interface %s (allocates)", name, Marker, typeString(pass.TypesInfo.TypeOf(as.Rhs[i])), typeString(lt))
		}
	}
}

// boxes reports whether assigning a value of type from to type to wraps a
// concrete value in an interface. Untyped nil and interface-to-interface
// assignments don't box, and neither does a pointer-shaped value (pointer,
// map, channel, func): it is the interface's data word as it stands.
func boxes(from, to types.Type) bool {
	if from == nil || to == nil {
		return false
	}
	if _, ok := to.Underlying().(*types.Interface); !ok {
		return false
	}
	switch from.Underlying().(type) {
	case *types.Interface, *types.Pointer, *types.Map, *types.Chan, *types.Signature:
		return false
	}
	if b, ok := from.(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return false
	}
	// Small-int boxing is sometimes elided by the runtime's static cache,
	// but relying on that in a hot path is fragile — report all boxing.
	return true
}

// captures lists outer function-local variables referenced by lit.
func captures(pass *lint.Pass, outer *ast.FuncDecl, lit *ast.FuncLit) []string {
	seen := map[string]bool{}
	var out []string
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.Uses[id]
		v, ok := obj.(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		// Captured: declared inside the outer function but outside the literal.
		if v.Pos() >= outer.Pos() && v.Pos() < outer.End() && (v.Pos() < lit.Pos() || v.Pos() >= lit.End()) {
			if !seen[v.Name()] {
				seen[v.Name()] = true
				out = append(out, v.Name())
			}
		}
		return true
	})
	return out
}

func allocatingConversion(from, to types.Type) bool {
	if from == nil || to == nil {
		return false
	}
	fs, fok := from.Underlying().(*types.Slice)
	ts, tok := to.Underlying().(*types.Slice)
	fstr := isString(from)
	tstr := isString(to)
	switch {
	case fstr && tok && isByteOrRune(ts.Elem()):
		return true // string -> []byte/[]rune
	case tstr && fok && isByteOrRune(fs.Elem()):
		return true // []byte/[]rune -> string
	}
	return false
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRune(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

func typeString(t types.Type) string {
	if t == nil {
		return "?"
	}
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}
