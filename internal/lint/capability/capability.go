// Package capability enforces the cc capability boundary around the
// protocol packages (DESIGN.md §10): a protocol may observe kernel state
// only through the cc.Env capabilities and may never mutate it. This is the
// single-blocking bookkeeping contract — if a protocol could reach into the
// lock table or kernel directly, the properties the simulator proves
// (single blocking, deadlock freedom, golden traces) would no longer
// constrain the live system.
package capability

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"

	"pcpda/internal/lint"
)

// ProtocolPkgs are the packages held to the capability contract.
var ProtocolPkgs = []string{
	"pcpda/internal/pcpda",
	"pcpda/internal/naiveda",
	"pcpda/internal/opcp",
	"pcpda/internal/rwpcp",
	"pcpda/internal/ccp",
	"pcpda/internal/pip",
	"pcpda/internal/tplhp",
	"pcpda/internal/occ",
}

// BannedImports are kernel internals protocols must not import; everything
// a protocol needs arrives through cc (which owns the lock/db imports).
var BannedImports = []string{
	"pcpda/internal/lock",
	"pcpda/internal/sched",
	"pcpda/internal/rtm",
	"pcpda/internal/sim",
	"pcpda/internal/history",
	"pcpda/internal/db",
	"pcpda/internal/fault",
}

// LayerAllow confines the network-service layers (DESIGN.md §11): each
// package listed here may import module-internal packages only from its
// allowlist. wire is a pure codec and sees nothing of the module; client
// sees only the codec, so it can never reach around the protocol; nemesis
// is a raw TCP relay that must stay ignorant of even the codec (it
// corrupts byte streams, so letting it parse them would invite
// protocol-aware "faults" that hide real bugs); server is the sole
// package allowed to hold both a socket and the manager; scenario drives
// both backends from outside — it may hold the sim entry points and the
// client, but never rtm or server (a workload engine that could reach
// into the manager would stop being a black-box client, and its live
// numbers would stop being honest).
var LayerAllow = map[string][]string{
	"pcpda/internal/wire":    {},
	"pcpda/internal/nemesis": {},
	"pcpda/internal/client":  {"pcpda/internal/wire"},
	"pcpda/internal/server": {
		"pcpda/internal/wire",
		"pcpda/internal/rtm",
		"pcpda/internal/metrics",
		"pcpda/internal/txn",
		"pcpda/internal/rt",
		"pcpda/internal/db",
	},
	"pcpda/internal/scenario": {
		"pcpda/internal/client",
		"pcpda/internal/nemesis",
		"pcpda/internal/wire",
		"pcpda/internal/sim",
		"pcpda/internal/sched",
		"pcpda/internal/txn",
		"pcpda/internal/rt",
		"pcpda/internal/workload",
	},
}

// LockfreeMarker is a file-scoped capability marker: a file whose header
// (before the package clause) contains this comment line promises its
// code never touches a sync lock or the lock table — the read-only
// snapshot path's isolation contract (DESIGN.md §14). The analyzer
// enforces it in every package, not just protocol packages.
const LockfreeMarker = "//pcpda:lockfree"

// lockTableMutators are lock.Table methods that change table state. The
// table itself is reachable read-only via cc.Env.Locks(), so the import ban
// alone cannot stop a protocol from mutating it.
var lockTableMutators = map[string]bool{
	"Acquire":    true,
	"Release":    true,
	"ReleaseAll": true,
}

// Analyzer is the capability analyzer.
var Analyzer = &lint.Analyzer{
	Name: "capability",
	Doc: "protocol packages must reach kernel state only through cc capabilities: " +
		"no kernel-internal imports, no lock-table mutation, no cc.Job field writes",
	Run: run,
}

func run(pass *lint.Pass) error {
	if allowed, confined := LayerAllow[pass.PkgPath]; confined {
		checkLayerImports(pass, allowed)
	}
	for _, f := range pass.Files {
		if hasLockfreeMarker(f) {
			checkLockfree(pass, f)
		}
	}
	if !isProtocolPkg(pass.PkgPath) {
		return nil
	}
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			for _, banned := range BannedImports {
				if path == banned {
					pass.Reportf(imp.Pos(), "protocol package imports kernel internal %q; use the cc capability interfaces", path)
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkLockMutation(pass, n)
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					checkJobWrite(pass, lhs)
				}
			case *ast.IncDecStmt:
				checkJobWrite(pass, n.X)
			case *ast.UnaryExpr:
				// &j.Field hands out a mutable alias to kernel-owned state.
				if n.Op.String() == "&" {
					if sel, ok := n.X.(*ast.SelectorExpr); ok && isJobSelector(pass, sel) {
						pass.Reportf(n.Pos(), "protocol takes the address of kernel-owned field %s.%s (cc.Job is read-only for protocols)", lint.ExprString(sel.X), sel.Sel.Name)
					}
				}
			}
			return true
		})
	}
	return nil
}

// checkLayerImports flags module-internal imports outside the package's
// LayerAllow allowlist.
func checkLayerImports(pass *lint.Pass, allowed []string) {
	ok := make(map[string]bool, len(allowed))
	for _, a := range allowed {
		ok[a] = true
	}
	list := strings.Join(allowed, ", ")
	if list == "" {
		list = "none; stdlib only"
	}
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil || !strings.HasPrefix(path, "pcpda/") || ok[path] {
				continue
			}
			pass.Reportf(imp.Pos(), "layer violation: %s may not import %q (allowed: %s)",
				pass.PkgPath, path, list)
		}
	}
}

// HasLockfreeMarker reports whether the file carries the LockfreeMarker
// in its header (any comment line before the package clause). Exported
// for the atomics analyzer, which re-verifies marked files at field
// access level.
func HasLockfreeMarker(f *ast.File) bool {
	return hasLockfreeMarker(f)
}

// hasLockfreeMarker reports whether the file carries the LockfreeMarker
// in its header (any comment line before the package clause).
func hasLockfreeMarker(f *ast.File) bool {
	for _, cg := range f.Comments {
		if cg.Pos() > f.Package {
			break
		}
		for _, c := range cg.List {
			if strings.TrimSpace(c.Text) == LockfreeMarker {
				return true
			}
		}
	}
	return false
}

// checkLockfree enforces the lockfree file contract: no lock-table
// import, no sync.Mutex/RWMutex type usage, no method call on a sync lock
// or on the lock table.
func checkLockfree(pass *lint.Pass, f *ast.File) {
	for _, imp := range f.Imports {
		if path, err := strconv.Unquote(imp.Path.Value); err == nil && path == "pcpda/internal/lock" {
			pass.Reportf(imp.Pos(), "lockfree file imports %q; the snapshot read path must not see the lock table", path)
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if named := namedOf(pass.TypesInfo.TypeOf(sel.X)); named != nil {
				if isLockTable(named) {
					pass.Reportf(n.Pos(), "lockfree file calls lock-table method %s.%s", lint.ExprString(sel.X), sel.Sel.Name)
				}
				if isSyncLock(named) {
					pass.Reportf(n.Pos(), "lockfree file calls %s.%s on a sync lock", lint.ExprString(sel.X), sel.Sel.Name)
				}
			}
		case *ast.SelectorExpr:
			// Qualified type references: sync.Mutex fields/vars, lock.Table
			// parameters — ban the types themselves, not just calls.
			id, ok := n.X.(*ast.Ident)
			if !ok {
				return true
			}
			pkg, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
			if !ok {
				return true
			}
			switch {
			case pkg.Imported().Path() == "sync" && (n.Sel.Name == "Mutex" || n.Sel.Name == "RWMutex"):
				pass.Reportf(n.Pos(), "lockfree file uses sync.%s", n.Sel.Name)
			case strings.HasSuffix(pkg.Imported().Path(), "internal/lock"):
				pass.Reportf(n.Pos(), "lockfree file references lock.%s", n.Sel.Name)
			}
		}
		return true
	})
}

func isSyncLock(named *types.Named) bool {
	obj := named.Obj()
	return (obj.Name() == "Mutex" || obj.Name() == "RWMutex") &&
		obj.Pkg() != nil && obj.Pkg().Path() == "sync"
}

func isProtocolPkg(path string) bool {
	for _, p := range ProtocolPkgs {
		if path == p {
			return true
		}
	}
	return false
}

// checkLockMutation flags calls to mutating lock.Table methods.
func checkLockMutation(pass *lint.Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !lockTableMutators[sel.Sel.Name] {
		return
	}
	recv := pass.TypesInfo.TypeOf(sel.X)
	if recv == nil {
		return
	}
	if named := namedOf(recv); named != nil && isLockTable(named) {
		pass.Reportf(call.Pos(), "protocol mutates the lock table via %s.%s; lock state changes are kernel-only", lint.ExprString(sel.X), sel.Sel.Name)
	}
}

// checkJobWrite flags assignments whose target is a field of cc.Job (or an
// element of one of its slices, e.g. j.Blockers[0]).
func checkJobWrite(pass *lint.Pass, lhs ast.Expr) {
	for {
		switch x := lhs.(type) {
		case *ast.IndexExpr:
			lhs = x.X
			continue
		case *ast.ParenExpr:
			lhs = x.X
			continue
		}
		break
	}
	sel, ok := lhs.(*ast.SelectorExpr)
	if !ok || !isJobSelector(pass, sel) {
		return
	}
	pass.Reportf(lhs.Pos(), "protocol writes kernel-owned field %s.%s (cc.Job is read-only for protocols)", lint.ExprString(sel.X), sel.Sel.Name)
}

// isJobSelector reports whether sel selects a field of cc.Job.
func isJobSelector(pass *lint.Pass, sel *ast.SelectorExpr) bool {
	s, ok := pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return false
	}
	named := namedOf(s.Recv())
	if named == nil {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Job" && obj.Pkg() != nil && strings.HasSuffix(obj.Pkg().Path(), "internal/cc")
}

func isLockTable(named *types.Named) bool {
	obj := named.Obj()
	return obj.Name() == "Table" && obj.Pkg() != nil && strings.HasSuffix(obj.Pkg().Path(), "internal/lock")
}

// namedOf unwraps pointers and aliases down to a *types.Named.
func namedOf(t types.Type) *types.Named {
	for {
		switch x := t.(type) {
		case *types.Pointer:
			t = x.Elem()
		case *types.Alias:
			t = types.Unalias(x)
		case *types.Named:
			return x
		default:
			return nil
		}
	}
}
