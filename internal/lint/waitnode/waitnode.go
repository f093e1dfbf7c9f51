// Package waitnode enforces the live manager's wakeup bookkeeping contract
// (DESIGN.md §10): every wait-node registration in the waits-on index must
// be paired with a deregistration on every exit path — including the
// ErrCancelled / ErrDeadlineMissed error exits added in PR 1. A node left
// registered after its goroutine returns is a dangling pointer in the wake
// index: a later wake() hits a retired node (lost wakeup for the real
// waiter, spurious token for a recycled one), which is exactly the
// silent-drift class the targeted-wakeup rewrite (PR 2) is vulnerable to.
//
// The analyzer runs a path-sensitive walk over every function in the rtm
// package: calls to the registration primitive (register) and direct appends
// to the index fields (the manager's allWaiters, a slot's waiters and begins)
// set the registered state; deregister (called directly or deferred) clears it; any
// return — or falling off the end of the function — while registered is
// reported. The primitives themselves are exempt: their bodies are the
// bookkeeping being protected.
package waitnode

import (
	"go/ast"

	"pcpda/internal/lint"
)

// TargetPkgs are the packages holding wait-node state.
var TargetPkgs = []string{"pcpda/internal/rtm"}

// registerFuncs / deregisterFuncs are the index primitives; indexFields are
// the raw index containers whose appends count as registration.
var (
	registerFuncs   = map[string]bool{"register": true}
	deregisterFuncs = map[string]bool{"deregister": true}
	indexFields     = map[string]bool{"allWaiters": true, "waiters": true, "begins": true}
	// exemptFuncs implement the primitives (their bodies ARE the
	// registration bookkeeping) and so are not themselves checked.
	exemptFuncs = map[string]bool{
		"register": true, "deregister": true, "removeNode": true,
	}
)

// Analyzer is the waitnode analyzer.
var Analyzer = &lint.Analyzer{
	Name: "waitnode",
	Doc: "every wait-node registration in the rtm waits-on index must be deregistered " +
		"on all exit paths, including the cancellation and deadline error exits",
	Run: run,
}

func run(pass *lint.Pass) error {
	ok := false
	for _, p := range TargetPkgs {
		if pass.PkgPath == p {
			ok = true
		}
	}
	if !ok {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, okd := decl.(*ast.FuncDecl)
			if !okd || fn.Body == nil || exemptFuncs[fn.Name.Name] {
				continue
			}
			w := &walker{pass: pass}
			out := w.block(fn.Body, state{})
			if out.reg && !out.returned {
				pass.Reportf(fn.Body.Rbrace, "function %s ends with a wait node still registered; pair the registration with deregister", fn.Name.Name)
			}
		}
	}
	return nil
}

// state is the abstract interpreter's lattice point for one path.
type state struct {
	reg        bool // a node is registered and not yet deregistered
	deferDereg bool // a deferred deregister guards every later return
	returned   bool // this path has returned (state no longer flows on)
}

func merge(a, b state) state {
	if a.returned {
		return b
	}
	if b.returned {
		return a
	}
	return state{reg: a.reg || b.reg, deferDereg: a.deferDereg && b.deferDereg}
}

type walker struct {
	pass *lint.Pass
}

func (w *walker) block(b *ast.BlockStmt, st state) state {
	for _, s := range b.List {
		st = w.stmt(s, st)
		if st.returned {
			break
		}
	}
	return st
}

func (w *walker) stmt(s ast.Stmt, st state) state {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return w.block(s, st)
	case *ast.ExprStmt:
		return w.scanEvents(s.X, st)
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			st = w.scanEvents(rhs, st)
		}
		for i, lhs := range s.Lhs {
			if i < len(s.Rhs) && isIndexAppend(lhs, s.Rhs[i]) {
				st.reg = true
			}
		}
		return st
	case *ast.DeferStmt:
		if call, name := calleeName(s.Call); call && deregisterFuncs[name] {
			st.deferDereg = true
		}
		return st
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			st = w.scanEvents(r, st)
		}
		if st.reg && !st.deferDereg {
			w.pass.Reportf(s.Pos(), "return with a wait node still registered; deregister on this exit path (cancellation and deadline exits included)")
		}
		st.returned = true
		return st
	case *ast.IfStmt:
		if s.Init != nil {
			st = w.stmt(s.Init, st)
		}
		st = w.scanEvents(s.Cond, st)
		thenSt := w.block(s.Body, st)
		elseSt := st
		if s.Else != nil {
			elseSt = w.stmt(s.Else, st)
		}
		out := merge(thenSt, elseSt)
		out.returned = thenSt.returned && elseSt.returned
		return out
	case *ast.ForStmt:
		if s.Init != nil {
			st = w.stmt(s.Init, st)
		}
		body := w.block(s.Body, st)
		return merge(st, body)
	case *ast.RangeStmt:
		st = w.scanEvents(s.X, st)
		body := w.block(s.Body, st)
		return merge(st, body)
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return w.clauses(s, st)
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, st)
	case *ast.GoStmt:
		return w.scanEvents(s.Call, st)
	case *ast.IncDecStmt:
		return st
	default:
		return st
	}
}

// clauses merges the bodies of switch/select statements.
func (w *walker) clauses(s ast.Stmt, st state) state {
	var bodies [][]ast.Stmt
	hasDefault := false
	switch s := s.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil {
			st = w.stmt(s.Init, st)
		}
		if s.Tag != nil {
			st = w.scanEvents(s.Tag, st)
		}
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			bodies = append(bodies, cc.Body)
			hasDefault = hasDefault || cc.List == nil
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			bodies = append(bodies, cc.Body)
			hasDefault = hasDefault || cc.List == nil
		}
	case *ast.SelectStmt:
		hasDefault = true // a blocked select holds state; clauses cover it
		for _, c := range s.Body.List {
			bodies = append(bodies, c.(*ast.CommClause).Body)
		}
	}
	if len(bodies) == 0 {
		return st
	}
	out := state{returned: true}
	for _, b := range bodies {
		out = merge(out, w.block(&ast.BlockStmt{List: b}, st))
	}
	if !hasDefault {
		// Fall-through when no case matches.
		out = merge(out, st)
	}
	return out
}

// scanEvents updates st for register/deregister calls inside expr.
func (w *walker) scanEvents(e ast.Expr, st state) state {
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if ok, name := calleeName(call); ok {
			if registerFuncs[name] {
				st.reg = true
			}
			if deregisterFuncs[name] {
				st.reg = false
			}
		}
		return true
	})
	return st
}

// calleeName extracts the bare method/function name of a call.
func calleeName(call *ast.CallExpr) (bool, string) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return true, fun.Name
	case *ast.SelectorExpr:
		return true, fun.Sel.Name
	}
	return false, ""
}

// isIndexAppend reports whether lhs = rhs is an append onto one of the
// wait-index containers (m.allWaiters, s.waiters, s.begins).
func isIndexAppend(lhs, rhs ast.Expr) bool {
	call, ok := rhs.(*ast.CallExpr)
	if !ok {
		return false
	}
	if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "append" {
		return false
	}
	sel, ok := lhs.(*ast.SelectorExpr)
	return ok && indexFields[sel.Sel.Name]
}
