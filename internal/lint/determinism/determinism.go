// Package determinism keeps the simulation kernel replayable (DESIGN.md
// §10): the golden-trace gate (sim/golden_test.go) only proves anything if
// a (workload, seed, options) triple always produces the same schedule.
// Inside the kernel packages it therefore bans the four classic sources of
// silent nondeterminism: wall-clock reads, the global math/rand state,
// goroutine spawns, and iteration over Go maps (whose order is
// intentionally randomized by the runtime).
//
// Seeded *rand.Rand instances are allowed — the sporadic-arrival generator
// is seeded per run and replays exactly. The one map-range shape that is
// recognized as benign is the canonical collect-then-sort idiom: a loop
// body that only appends keys/values into slice variables, each of which is
// later passed to a sort.* / slices.Sort* call in the same function. (Uses
// of the slice between collection and sort are not tracked; the sort must
// simply exist downstream.) Anything else — including collect loops whose
// slices are never sorted — is flagged and must be fixed: the suite has no
// suppressions, so a false positive is fixed here, in the analyzer.
package determinism

import (
	"go/ast"
	"go/token"
	"go/types"

	"pcpda/internal/lint"
)

// KernelPkgs are the deterministic-replay packages: the tick kernel, the
// sim facade and the history checker that the golden traces hash.
var KernelPkgs = []string{
	"pcpda/internal/sched",
	"pcpda/internal/sim",
	"pcpda/internal/history",
}

// bannedTimeFuncs read the wall clock (or depend on it).
var bannedTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true, "After": true, "Tick": true, "NewTimer": true, "NewTicker": true,
}

// bannedRandFuncs draw from (or reseed) the global math/rand source.
// Constructors (New, NewSource, NewZipf) are fine: a seeded *rand.Rand
// replays deterministically.
var bannedRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true, "Int63": true, "Int63n": true,
	"Uint32": true, "Uint64": true, "Float32": true, "Float64": true,
	"Perm": true, "Shuffle": true, "Read": true, "Seed": true,
	"ExpFloat64": true, "NormFloat64": true, "N": true,
}

// Analyzer is the determinism analyzer.
var Analyzer = &lint.Analyzer{
	Name: "determinism",
	Doc: "kernel packages (sched, sim, history) must stay deterministic: no wall clock, " +
		"no global math/rand, no goroutine spawns, no map iteration",
	Run: run,
}

func run(pass *lint.Pass) error {
	if !isKernelPkg(pass.PkgPath) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, n)
			case *ast.GoStmt:
				pass.Reportf(n.Pos(), "go statement in kernel package: goroutine scheduling is nondeterministic")
			case *ast.RangeStmt:
				if t := pass.TypesInfo.TypeOf(n.X); t != nil {
					if _, ok := t.Underlying().(*types.Map); ok {
						if !isSortedCollect(pass, f, n) {
							pass.Reportf(n.Pos(), "range over map %s in kernel package: iteration order is randomized; sort the keys", lint.ExprString(n.X))
						}
					}
				}
			}
			return true
		})
	}
	return nil
}

// sortCalls maps package path → exported functions that impose a total
// order on their slice argument.
var sortCalls = map[string]map[string]bool{
	"sort": {
		"Sort": true, "Stable": true, "Slice": true, "SliceStable": true,
		"Strings": true, "Ints": true, "Float64s": true,
	},
	"slices": {"Sort": true, "SortFunc": true, "SortStableFunc": true},
}

// isSortedCollect reports whether rng is the benign collect-then-sort
// idiom: every statement in the loop body is an append into a slice
// variable (optionally guarded by if statements), and each collected slice
// is passed to a sort call later in the innermost enclosing function.
func isSortedCollect(pass *lint.Pass, file *ast.File, rng *ast.RangeStmt) bool {
	collected := map[*types.Var]bool{}
	if !collectStmts(pass, rng.Body.List, collected) || len(collected) == 0 {
		return false
	}
	body := enclosingFuncBody(file, rng.Pos())
	if body == nil {
		return false
	}
	for v := range collected {
		if !sortedAfter(pass, body, v, rng.End()) {
			return false
		}
	}
	return true
}

// collectStmts checks that stmts consist only of slice-append assignments
// (recording the appended-to variables) and if statements whose branches
// recursively qualify.
func collectStmts(pass *lint.Pass, stmts []ast.Stmt, out map[*types.Var]bool) bool {
	for _, s := range stmts {
		switch s := s.(type) {
		case *ast.AssignStmt:
			v := appendTarget(pass, s)
			if v == nil {
				return false
			}
			out[v] = true
		case *ast.IfStmt:
			// The init clause (e.g. `_, ok := m[x]`) and condition are
			// value-only; the branches must qualify recursively.
			if !collectStmts(pass, s.Body.List, out) {
				return false
			}
			switch e := s.Else.(type) {
			case nil:
			case *ast.BlockStmt:
				if !collectStmts(pass, e.List, out) {
					return false
				}
			case *ast.IfStmt:
				if !collectStmts(pass, []ast.Stmt{e}, out) {
					return false
				}
			default:
				return false
			}
		default:
			return false
		}
	}
	return true
}

// appendTarget returns the slice variable v for a statement of the exact
// form `v = append(v, ...)`, or nil.
func appendTarget(pass *lint.Pass, s *ast.AssignStmt) *types.Var {
	if s.Tok != token.ASSIGN || len(s.Lhs) != 1 || len(s.Rhs) != 1 {
		return nil
	}
	lhs, ok := s.Lhs[0].(*ast.Ident)
	if !ok {
		return nil
	}
	v, ok := pass.TypesInfo.Uses[lhs].(*types.Var)
	if !ok {
		return nil
	}
	if _, ok := v.Type().Underlying().(*types.Slice); !ok {
		return nil
	}
	call, ok := s.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return nil
	}
	fn, ok := call.Fun.(*ast.Ident)
	if !ok || pass.TypesInfo.Uses[fn] != types.Universe.Lookup("append") {
		return nil
	}
	arg0, ok := call.Args[0].(*ast.Ident)
	if !ok || pass.TypesInfo.Uses[arg0] != v {
		return nil
	}
	return v
}

// enclosingFuncBody returns the innermost function body containing pos.
func enclosingFuncBody(file *ast.File, pos token.Pos) *ast.BlockStmt {
	var best *ast.BlockStmt
	ast.Inspect(file, func(n ast.Node) bool {
		var body *ast.BlockStmt
		switch n := n.(type) {
		case *ast.FuncDecl:
			body = n.Body
		case *ast.FuncLit:
			body = n.Body
		default:
			return true
		}
		if body != nil && body.Pos() <= pos && pos < body.End() {
			best = body // inner bodies are visited after outer ones
		}
		return true
	})
	return best
}

// sortedAfter reports whether v is referenced inside a sort call that
// starts after pos within body.
func sortedAfter(pass *lint.Pass, body *ast.BlockStmt, v *types.Var, pos token.Pos) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos || found {
			return !found
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		pkgName, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
		if !ok || !sortCalls[pkgName.Imported().Path()][sel.Sel.Name] {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == v {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}

func isKernelPkg(path string) bool {
	for _, p := range KernelPkgs {
		if path == p {
			return true
		}
	}
	return false
}

// checkCall flags wall-clock reads and global math/rand draws. Both are
// selector calls on a package name, which distinguishes rand.Intn (global
// state) from rng.Intn (method on a seeded *rand.Rand).
func checkCall(pass *lint.Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return
	}
	pkgName, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
	if !ok {
		return
	}
	switch pkgName.Imported().Path() {
	case "time":
		if bannedTimeFuncs[sel.Sel.Name] {
			pass.Reportf(call.Pos(), "time.%s in kernel package: wall-clock input makes runs unreplayable; use the tick clock", sel.Sel.Name)
		}
	case "math/rand", "math/rand/v2":
		if bannedRandFuncs[sel.Sel.Name] {
			pass.Reportf(call.Pos(), "global rand.%s in kernel package: unseeded process-global randomness; draw from a per-run seeded *rand.Rand", sel.Sel.Name)
		}
	}
}
