// Package flow is the suite's one lock-state dataflow, read by guardedby,
// atomics and lockorder: a path-sensitive statement walk, per-function
// lock-effect summaries iterated to a fixpoint, and entry states
// propagated from the exported API through same-package call sites, over
// a *set* of named mutexes, each identified by the mutex variable (a
// struct field or plain var) plus the access path of the instance it was
// locked through ("m.mu", "t.mgr.mu", "q.mu").
//
// The result of Analyze is two lists, each entry carrying the set of
// mutexes statically held at that point: the struct-field accesses the
// package performs (read or write, through sync/atomic or not, on a
// freshly constructed value or a published one) and its channel sends and
// receives (blocking, or a comm of a select with a default). Analyzers
// turn those lists into checks; flow itself reports nothing. Analyze is
// memoized on the Pass, so the walk runs once per package however many
// analyzers read it.
//
// Precision notes, shared by every client:
//
//   - Locks are matched by instance path when the path is statically
//     known ("m.mu" locked, "m.active" accessed). Locks that arrive
//     through a call boundary the path cannot cross keep only their
//     identity (the mutex field object), which still distinguishes
//     "some Manager's mu" from "some admitQueue's mu".
//   - Local aliases are resolved (m := t.mgr; m.mu.Lock() holds t.mgr.mu).
//   - Deferred Lock/Unlock calls apply at every function exit, not in the
//     body, so the lock is held from the Lock statement to each return.
//   - Function literals are walked as separate functions entered with the
//     state at their creation point — the iterate-under-lock callback and
//     local-recursive-helper idioms run synchronously in the enclosing
//     frame. Literals spawned by a go statement enter with nothing held
//     and nothing fresh: the creator's locks do not protect a new
//     goroutine.
//   - Functions never reachable from a seed (exported API, main/init, a
//     go/defer statement, or a use as a function value) are skipped:
//     guessing an entry state would guess wrong.
package flow

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"

	"pcpda/internal/lint"
)

// Mode is the strength a mutex is held with.
type Mode uint8

const (
	// ModeRead is a shared hold (RLock).
	ModeRead Mode = 1 + iota
	// ModeWrite is an exclusive hold (Lock).
	ModeWrite
)

// Path is the canonical access path of a value: a root object (receiver,
// parameter, local, or package-level var) plus a ".field.field" suffix.
// The zero Path is the unknown instance: a value reached through an
// expression the analysis cannot canonicalize (call result, map index) or
// a lock that crossed a call boundary the path cannot be translated over.
type Path struct {
	Root   types.Object
	Suffix string
}

// Known reports whether the path identifies a concrete instance.
func (p Path) Known() bool { return p.Root != nil }

// Field extends the path by one field selection.
func (p Path) Field(name string) Path {
	if !p.Known() {
		return Path{}
	}
	return Path{Root: p.Root, Suffix: p.Suffix + "." + name}
}

// String renders the path for diagnostics ("m.mu", "?").
func (p Path) String() string {
	if !p.Known() {
		return "?"
	}
	return p.Root.Name() + p.Suffix
}

// Lock is one held mutex along a path.
type Lock struct {
	// Mutex identifies the lock: the *types.Var of the sync.Mutex /
	// sync.RWMutex struct field, or of a plain mutex variable.
	Mutex types.Object
	// Inst is the instance the mutex was locked through, including the
	// mutex segment itself ("m.mu"). Unknown when the lock crossed an
	// untranslatable call boundary.
	Inst Path
	Mode Mode
}

// Access is one read or write of a struct field.
type Access struct {
	Fn    *ast.FuncDecl // enclosing declaration; nil inside a function literal
	File  *ast.File
	Sel   *ast.SelectorExpr
	Field *types.Var   // the field accessed
	Owner *types.Named // named type the selection went through (nil if unnamed)
	Base  Path         // canonical path of Sel.X (the value holding the field)
	Pos   token.Pos
	Write bool
	// Atomic marks &f passed to a sync/atomic function (atomic.AddInt64
	// style); accesses through typed atomic.* fields are recognized by
	// their field type instead.
	Atomic bool
	// Fresh marks an access to a value constructed in this function (or
	// received provably fresh): the constructor exemption.
	Fresh bool
	// Held is the set of mutexes statically held at the access.
	Held []Lock
}

// ChanOp is one channel send or receive.
type ChanOp struct {
	Pos  token.Pos // the arrow
	Send bool
	// Field and Owner name the channel when the operand is a struct-field
	// selection (n.ch: field ch of waitNode); nil otherwise.
	Field *types.Var
	Owner *types.Named
	// NonBlocking marks a comm of a select that has a default clause.
	NonBlocking bool
	// Held is the set of mutexes statically held at the operation.
	Held []Lock
}

// GlobalWrite is an assignment to a package-level variable (function-body
// writes only; initializer expressions run single-threaded).
type GlobalWrite struct {
	Fn   *ast.FuncDecl
	File *ast.File
	Obj  types.Object
	Pos  token.Pos
}

// HoldsMarker is the function-level caller-contract annotation:
//
//	//pcpda:holds mu
//	//pcpda:holds mu read
//
// declares that every caller enters the method with the receiver's mutex
// at that field path held (exclusively, or at least for reading with the
// "read" token). The annotation pins the method's entry state — the tool
// for exported methods whose lock contract lives outside the package, like
// the cc.Env capability methods the protocols call while the kernel holds
// the manager lock — and same-package call sites are verified against it.
const HoldsMarker = "//pcpda:holds"

// BadHolds is a //pcpda:holds annotation that failed to resolve.
type BadHolds struct {
	Pos    token.Pos
	Fn     string
	Spec   string
	Reason string
}

// HoldsViolation is a same-package call to a //pcpda:holds method made
// without the declared mutex held.
type HoldsViolation struct {
	Pos    token.Pos
	Callee string
	Spec   string
}

// Result is everything Analyze extracts from one package.
type Result struct {
	Guards          *Guards
	Accesses        []Access
	ChanOps         []ChanOp
	GlobalWrites    []GlobalWrite
	BadHolds        []BadHolds
	HoldsViolations []HoldsViolation
}

// Analyze returns the package's flow analysis: every field access and
// channel operation with its held-lock set, plus the guard table. The first
// call for a package computes it; later calls, from whichever analyzer,
// return the same Result.
func Analyze(pass *lint.Pass) *Result {
	type key struct{}
	return pass.Shared(key{}, func() any { return analyze(pass) }).(*Result)
}

func analyze(pass *lint.Pass) *Result {
	a := &analysis{
		pass:      pass,
		funcs:     map[types.Object]*funcInfo{},
		summaries: map[types.Object]*summary{},
		entries:   map[types.Object]*entryState{},
		pinned:    map[types.Object]bool{},
		result:    &Result{Guards: parseGuards(pass)},
	}
	a.collect()
	a.fixSummaries()
	a.fixEntries()
	a.phase = phaseReport
	for obj, fi := range a.funcs {
		ent := a.entries[obj]
		if ent == nil {
			continue // unreachable from any seed; entry state unknowable
		}
		a.walkFunc(fi, ent)
	}
	sort.Slice(a.result.Accesses, func(i, j int) bool {
		return a.result.Accesses[i].Pos < a.result.Accesses[j].Pos
	})
	sort.Slice(a.result.ChanOps, func(i, j int) bool {
		return a.result.ChanOps[i].Pos < a.result.ChanOps[j].Pos
	})
	return a.result
}

const (
	phaseSummary = iota
	phaseEntries
	phaseReport
)

type funcInfo struct {
	decl   *ast.FuncDecl
	file   *ast.File
	obj    types.Object
	recv   *types.Var
	params []*types.Var
	// holds is the //pcpda:holds contract: locks (rooted at recv) every
	// caller provides. Non-empty holds pins the entry state.
	holds      []Lock
	holdsSpecs []string
}

// summary is a function's net lock effect, with lock paths rooted at its
// receiver (-1), a parameter index, or a package-level object.
type summary struct {
	acquires []sumLock
	releases []sumLock
}

type sumLock struct {
	mutex  types.Object
	root   int // rootRecv, rootGlobal, or a parameter index
	global types.Object
	suffix string
	mode   Mode
}

const (
	rootRecv   = -1
	rootGlobal = -2
)

func (s *summary) key() string {
	var b strings.Builder
	for _, l := range s.acquires {
		b.WriteString(l.str())
		b.WriteByte('+')
	}
	for _, l := range s.releases {
		b.WriteString(l.str())
		b.WriteByte('-')
	}
	return b.String()
}

func (l sumLock) str() string {
	name := ""
	if l.global != nil {
		name = l.global.Name()
	}
	return l.mutex.Name() + "/" + name + "/" + l.suffix + string(rune('0'+l.root+3)) + string(rune('0'+l.mode))
}

// entryState is the merged (must-hold) state a function is entered with.
type entryState struct {
	held  []Lock // roots are this function's own recv/param objects
	fresh map[types.Object]bool
}

type analysis struct {
	pass      *lint.Pass
	funcs     map[types.Object]*funcInfo
	summaries map[types.Object]*summary
	entries   map[types.Object]*entryState
	// pinned marks functions whose entry state is fixed by //pcpda:holds;
	// call-site merges must not weaken it.
	pinned  map[types.Object]bool
	result  *Result
	phase   int
	changed bool
}

// collect gathers function declarations and seeds the entry map with
// everything entered lock-free by construction: the exported API,
// main/init, and any function referenced as a value.
func (a *analysis) collect() {
	info := a.pass.TypesInfo
	for _, f := range a.pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			obj := info.Defs[fn.Name]
			if obj == nil {
				continue
			}
			fi := &funcInfo{decl: fn, file: f, obj: obj}
			if fn.Recv != nil && len(fn.Recv.List) == 1 && len(fn.Recv.List[0].Names) == 1 {
				if rv, ok := info.Defs[fn.Recv.List[0].Names[0]].(*types.Var); ok {
					fi.recv = rv
				}
			}
			for _, p := range fn.Type.Params.List {
				for _, name := range p.Names {
					if pv, ok := info.Defs[name].(*types.Var); ok {
						fi.params = append(fi.params, pv)
					}
				}
			}
			a.funcs[obj] = fi
			a.summaries[obj] = &summary{}
			a.parseHolds(fi)
			if len(fi.holds) > 0 {
				a.pinned[obj] = true
				a.entries[obj] = &entryState{
					held:  append([]Lock(nil), fi.holds...),
					fresh: map[types.Object]bool{},
				}
			}
		}
	}

	// Call-position idents, so uses outside call position (function
	// values: callbacks, method values) seed an empty entry.
	callPos := map[*ast.Ident]bool{}
	for _, f := range a.pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch fun := ast.Unparen(call.Fun).(type) {
			case *ast.Ident:
				callPos[fun] = true
			case *ast.SelectorExpr:
				callPos[fun.Sel] = true
			}
			return true
		})
	}
	for _, f := range a.pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || callPos[id] {
				return true
			}
			if obj := a.pass.TypesInfo.Uses[id]; obj != nil && a.funcs[obj] != nil {
				a.seedEmpty(obj)
			}
			return true
		})
	}
	for obj, fi := range a.funcs {
		name := fi.decl.Name.Name
		if ast.IsExported(name) || name == "main" || name == "init" {
			a.seedEmpty(obj)
		}
	}
}

// seedEmpty merges the empty entry state (no locks, nothing fresh) into a
// function's entry.
func (a *analysis) seedEmpty(obj types.Object) {
	a.mergeEntry(obj, nil, nil)
}

// parseHolds resolves the function's //pcpda:holds annotations against the
// receiver's struct type.
func (a *analysis) parseHolds(fi *funcInfo) {
	if fi.decl.Doc == nil {
		return
	}
	for _, c := range fi.decl.Doc.List {
		rest, ok := strings.CutPrefix(strings.TrimSpace(c.Text), HoldsMarker)
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		spec := ""
		if len(fields) > 0 {
			spec = fields[0]
		}
		mode := ModeWrite
		if len(fields) > 1 && fields[1] == "read" {
			mode = ModeRead
		}
		bad := func(reason string) {
			a.result.BadHolds = append(a.result.BadHolds, BadHolds{
				Pos: c.Pos(), Fn: fi.decl.Name.Name, Spec: spec, Reason: reason,
			})
		}
		if spec == "" {
			bad("missing mutex path")
			continue
		}
		if fi.recv == nil {
			bad("the annotation declares a receiver lock; this function has no receiver")
			continue
		}
		recvT := fi.recv.Type()
		if p, okp := recvT.Underlying().(*types.Pointer); okp {
			recvT = p.Elem()
		}
		stype, oks := recvT.Underlying().(*types.Struct)
		if !oks {
			bad("receiver is not a struct")
			continue
		}
		mutex, _, reason := walkFieldPath(stype, strings.Split(spec, "."))
		if reason != "" {
			bad(reason)
			continue
		}
		fi.holds = append(fi.holds, Lock{
			Mutex: mutex, Inst: Path{Root: fi.recv, Suffix: "." + spec}, Mode: mode,
		})
		fi.holdsSpecs = append(fi.holdsSpecs, strings.Join(fields, " "))
	}
}

// mergeEntry intersects a candidate entry state into the function's entry.
func (a *analysis) mergeEntry(obj types.Object, held []Lock, fresh map[types.Object]bool) {
	if a.pinned[obj] {
		return // //pcpda:holds fixes the entry; call sites are checked instead
	}
	ent := a.entries[obj]
	if ent == nil {
		cp := make([]Lock, len(held))
		copy(cp, held)
		fr := map[types.Object]bool{}
		for k, v := range fresh {
			if v {
				fr[k] = true
			}
		}
		a.entries[obj] = &entryState{held: cp, fresh: fr}
		a.changed = true
		return
	}
	kept := intersectLocks(ent.held, held)
	if len(kept) != len(ent.held) || !sameLocks(kept, ent.held) {
		ent.held = kept
		a.changed = true
	}
	for k := range ent.fresh {
		if !fresh[k] {
			delete(ent.fresh, k)
			a.changed = true
		}
	}
}

// fixSummaries iterates lock-effect summaries to a fixpoint so helpers
// that lock (or unlock) on the caller's behalf compose.
func (a *analysis) fixSummaries() {
	a.phase = phaseSummary
	for range a.funcs {
		changed := false
		for obj, fi := range a.funcs {
			next := a.computeSummary(fi)
			if next.key() != a.summaries[obj].key() {
				a.summaries[obj] = next
				changed = true
			}
		}
		if !changed {
			break
		}
	}
}

func (a *analysis) computeSummary(fi *funcInfo) *summary {
	w := a.newWalker(fi, nil)
	w.run(state{})
	sum := &summary{}
	// Net effect per exit path first (a temporary release/re-acquire pair
	// cancels along its own path), then across paths: acquires are
	// must-acquires (intersection), releases are may-releases (union).
	first := true
	for _, exit := range w.exits {
		exit = exit.cancelPairs()
		var acq []sumLock
		for _, l := range exit.held {
			if sl, ok := a.toSumLock(fi, l); ok {
				acq = append(acq, sl)
			}
		}
		if first {
			sum.acquires = acq
			first = false
		} else {
			sum.acquires = intersectSumLocks(sum.acquires, acq)
		}
		for _, l := range exit.released {
			if sl, ok := a.toSumLock(fi, l); ok {
				dup := false
				for _, have := range sum.releases {
					if have == sl {
						dup = true
						break
					}
				}
				if !dup {
					sum.releases = append(sum.releases, sl)
				}
			}
		}
	}
	sort.Slice(sum.acquires, func(i, j int) bool { return sum.acquires[i].str() < sum.acquires[j].str() })
	sort.Slice(sum.releases, func(i, j int) bool { return sum.releases[i].str() < sum.releases[j].str() })
	return sum
}

func intersectSumLocks(xs, ys []sumLock) []sumLock {
	var out []sumLock
	for _, x := range xs {
		for _, y := range ys {
			if x == y {
				out = append(out, x)
				break
			}
		}
	}
	return out
}

// toSumLock rewrites a lock path rooted at the function's receiver, a
// parameter, or a package-level var into caller-translatable form.
func (a *analysis) toSumLock(fi *funcInfo, l Lock) (sumLock, bool) {
	if !l.Inst.Known() {
		return sumLock{}, false
	}
	if fi.recv != nil && l.Inst.Root == fi.recv {
		return sumLock{mutex: l.Mutex, root: rootRecv, suffix: l.Inst.Suffix, mode: l.Mode}, true
	}
	for i, p := range fi.params {
		if l.Inst.Root == p {
			return sumLock{mutex: l.Mutex, root: i, suffix: l.Inst.Suffix, mode: l.Mode}, true
		}
	}
	if v, ok := l.Inst.Root.(*types.Var); ok && v.Parent() == a.pass.Pkg.Scope() {
		return sumLock{mutex: l.Mutex, root: rootGlobal, global: v, suffix: l.Inst.Suffix, mode: l.Mode}, true
	}
	return sumLock{}, false
}

// fixEntries propagates entry states from the seeds through same-package
// call sites (bounded: package call graphs are shallow).
func (a *analysis) fixEntries() {
	a.phase = phaseEntries
	for range 16 {
		a.changed = false
		for obj, fi := range a.funcs {
			ent := a.entries[obj]
			if ent == nil {
				continue
			}
			a.walkFunc(fi, ent)
		}
		if !a.changed {
			break
		}
	}
}

// walkFunc runs one full walk of a function from its entry state.
func (a *analysis) walkFunc(fi *funcInfo, ent *entryState) {
	w := a.newWalker(fi, ent.fresh)
	st := state{held: make([]Lock, len(ent.held))}
	copy(st.held, ent.held)
	w.run(st)
}

func (a *analysis) newWalker(fi *funcInfo, entryFresh map[types.Object]bool) *walker {
	return &walker{
		a:          a,
		fi:         fi,
		body:       fi.decl.Body,
		file:       fi.file,
		rangeStart: fi.decl.Pos(),
		rangeEnd:   fi.decl.End(),
		entryFresh: entryFresh,
		aliases:    map[types.Object]Path{},
		fresh:      map[types.Object]bool{},
	}
}

// --- path-sensitive walker ---

// deferOp is a deferred mutex operation, applied at function exits.
type deferOp struct {
	kind  byte // 'L' or 'U'
	mutex types.Object
	inst  Path
	mode  Mode
}

// state is the abstract machine state along one path.
type state struct {
	dead   bool // path returned
	held   []Lock
	defers []deferOp
	// released are unlocks of mutexes this path did not hold: releases of
	// the caller's locks. Kept per-path so a release immediately followed
	// by a re-acquire (the yield-under-fault pattern: Unlock, Gosched,
	// Lock) cancels out at the exit instead of surviving a branch merge as
	// a spurious net release.
	released []Lock
}

func (st state) clone() state {
	out := state{dead: st.dead}
	out.held = append([]Lock(nil), st.held...)
	out.defers = append([]deferOp(nil), st.defers...)
	out.released = append([]Lock(nil), st.released...)
	return out
}

func (st state) withLock(l Lock) state {
	out := st.clone()
	// A pending caller-lock release followed by a matching acquire is the
	// temporary-release pattern (Unlock, yield, Lock): the acquire restores
	// the caller's lock rather than taking a new one, and the pair must
	// cancel here, before any branch merge separates the two halves.
	for i := range out.released {
		r := out.released[i]
		if r.Mutex != l.Mutex || r.Mode != l.Mode {
			continue
		}
		if r.Inst == l.Inst || !r.Inst.Known() || !l.Inst.Known() {
			out.released = append(out.released[:i], out.released[i+1:]...)
			return out
		}
	}
	for i := range out.held {
		if out.held[i].Mutex == l.Mutex && out.held[i].Inst == l.Inst {
			out.held[i].Mode = l.Mode
			return out
		}
	}
	out.held = append(out.held, l)
	return out
}

// withoutLock releases a mutex: the exact instance when present, else any
// hold of the same mutex object. A release of a mutex not held at all is
// a release of the caller's lock and joins the path's released set.
func (st state) withoutLock(mutex types.Object, inst Path, mode Mode) state {
	out := st.clone()
	for i := range out.held {
		if out.held[i].Mutex == mutex && out.held[i].Inst == inst {
			out.held = append(out.held[:i], out.held[i+1:]...)
			return out
		}
	}
	for i := range out.held {
		if out.held[i].Mutex == mutex {
			out.held = append(out.held[:i], out.held[i+1:]...)
			return out
		}
	}
	out.released = append(out.released, Lock{Mutex: mutex, Inst: inst, Mode: mode})
	return out
}

// cancelPairs drops each released caller-lock that a later acquire of the
// same mutex (same mode, compatible instance) restored — the pair is a
// temporary release with zero net effect. Called once per exit path, before
// paths merge, because the cancellation is only valid along a single path.
func (st state) cancelPairs() state {
	out := st.clone()
	for i := 0; i < len(out.released); {
		r := out.released[i]
		matched := -1
		for j, h := range out.held {
			if h.Mutex != r.Mutex || h.Mode != r.Mode {
				continue
			}
			if h.Inst == r.Inst || !h.Inst.Known() || !r.Inst.Known() {
				matched = j
				break
			}
		}
		if matched < 0 {
			i++
			continue
		}
		out.held = append(out.held[:matched], out.held[matched+1:]...)
		out.released = append(out.released[:i], out.released[i+1:]...)
	}
	return out
}

// mergeStates is the must-hold join: a lock survives only if held on both
// paths; modes weaken to read on disagreement; instance paths weaken to
// unknown on disagreement. Released caller-locks are may-releases and
// union.
func mergeStates(x, y state) state {
	if x.dead {
		return y
	}
	if y.dead {
		return x
	}
	out := state{held: intersectLocks(x.held, y.held)}
	n := len(x.defers)
	if len(y.defers) < n {
		n = len(y.defers)
	}
	out.defers = append([]deferOp(nil), x.defers[:n]...)
	out.released = append([]Lock(nil), x.released...)
	for _, l := range y.released {
		dup := false
		for _, have := range out.released {
			if have == l {
				dup = true
				break
			}
		}
		if !dup {
			out.released = append(out.released, l)
		}
	}
	return out
}

func intersectLocks(xs, ys []Lock) []Lock {
	var out []Lock
	for _, lx := range xs {
		for _, ly := range ys {
			if lx.Mutex != ly.Mutex {
				continue
			}
			kept := lx
			if lx.Inst != ly.Inst {
				kept.Inst = Path{}
			}
			if ly.Mode < kept.Mode {
				kept.Mode = ly.Mode
			}
			out = append(out, kept)
			break
		}
	}
	return out
}

func sameLocks(xs, ys []Lock) bool {
	if len(xs) != len(ys) {
		return false
	}
	for i := range xs {
		if xs[i] != ys[i] {
			return false
		}
	}
	return true
}

type walker struct {
	a          *analysis
	fi         *funcInfo // enclosing declaration (also set for literals)
	body       *ast.BlockStmt
	file       *ast.File
	rangeStart token.Pos // declaration range: value-copy locals must be declared inside
	rangeEnd   token.Pos
	inLit      bool
	entryFresh map[types.Object]bool
	aliases    map[types.Object]Path
	fresh      map[types.Object]bool
	exits      []state
	// nonblock is set while walking a comm of a select that has a default
	// clause: that operation cannot block.
	nonblock bool
}

// run walks the body and returns the merged exit state (defers applied).
func (w *walker) run(st state) state {
	end := w.block(w.body, st)
	if !end.dead {
		w.exits = append(w.exits, w.applyDefers(end))
	}
	out := state{dead: true}
	for _, e := range w.exits {
		out = mergeStates(out, e)
	}
	return out
}

func (w *walker) applyDefers(st state) state {
	for i := len(st.defers) - 1; i >= 0; i-- {
		d := st.defers[i]
		if d.kind == 'L' {
			st = st.withLock(Lock{Mutex: d.mutex, Inst: d.inst, Mode: d.mode})
		} else {
			st = st.withoutLock(d.mutex, d.inst, d.mode)
		}
	}
	st.defers = nil
	return st
}

func (w *walker) block(b *ast.BlockStmt, st state) state {
	for _, s := range b.List {
		st = w.stmt(s, st)
		if st.dead {
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
		return w.expr(s.X, st)
	case *ast.SendStmt:
		st = w.expr(s.Value, st)
		w.emitChan(s.Arrow, s.Chan, true, st)
		return w.expr(s.Chan, st)
	case *ast.AssignStmt:
		return w.assign(s, st)
	case *ast.IncDecStmt:
		w.lvalue(s.X, st)
		return st
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			st = w.expr(r, st)
		}
		w.exits = append(w.exits, w.applyDefers(st))
		st.dead = true
		return st
	case *ast.DeferStmt:
		if op, ok := w.mutexOp(s.Call); ok {
			out := st.clone()
			out.defers = append(out.defers, op)
			return out
		}
		w.deferredCall(s.Call, st)
		return st
	case *ast.IfStmt:
		if s.Init != nil {
			st = w.stmt(s.Init, st)
		}
		st = w.expr(s.Cond, st)
		thenSt := w.block(s.Body, st.clone())
		elseSt := st.clone()
		if s.Else != nil {
			elseSt = w.stmt(s.Else, elseSt)
		}
		return mergeStates(thenSt, elseSt)
	case *ast.ForStmt:
		if s.Init != nil {
			st = w.stmt(s.Init, st)
		}
		if s.Cond != nil {
			st = w.expr(s.Cond, st)
		}
		body := w.block(s.Body, st.clone())
		if s.Cond == nil && body.dead {
			// for{} with every path returning: nothing falls out.
			return body
		}
		return mergeStates(st, body)
	case *ast.RangeStmt:
		st = w.expr(s.X, st)
		body := w.block(s.Body, st.clone())
		return mergeStates(st, body)
	case *ast.SelectStmt:
		hasDefault := slices.ContainsFunc(s.Body.List, func(c ast.Stmt) bool {
			return c.(*ast.CommClause).Comm == nil
		})
		out := state{dead: true}
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			cst := st.clone()
			if cc.Comm != nil {
				w.nonblock = hasDefault
				cst = w.stmt(cc.Comm, cst)
				w.nonblock = false
			}
			out = mergeStates(out, w.block(&ast.BlockStmt{List: cc.Body}, cst))
		}
		if len(s.Body.List) == 0 {
			return st
		}
		return out
	case *ast.SwitchStmt:
		if s.Init != nil {
			st = w.stmt(s.Init, st)
		}
		if s.Tag != nil {
			st = w.expr(s.Tag, st)
		}
		return w.caseClauses(s.Body, st)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			st = w.stmt(s.Init, st)
		}
		return w.caseClauses(s.Body, st)
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, st)
	case *ast.GoStmt:
		w.spawnedCall(s.Call, st)
		return st
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						st = w.expr(v, st)
					}
				}
			}
		}
		return st
	default:
		return st
	}
}

func (w *walker) caseClauses(body *ast.BlockStmt, st state) state {
	hasDefault := false
	out := state{dead: true}
	for _, c := range body.List {
		cc := c.(*ast.CaseClause)
		cst := st.clone()
		for _, e := range cc.List {
			cst = w.expr(e, cst)
		}
		hasDefault = hasDefault || cc.List == nil
		out = mergeStates(out, w.block(&ast.BlockStmt{List: cc.Body}, cst))
	}
	if len(body.List) == 0 {
		return st
	}
	if !hasDefault {
		out = mergeStates(out, st)
	}
	return out
}

// assign handles alias/freshness tracking, write classification of the
// left-hand sides, and global-write recording.
func (w *walker) assign(s *ast.AssignStmt, st state) state {
	for _, rhs := range s.Rhs {
		st = w.expr(rhs, st)
	}
	for _, lhs := range s.Lhs {
		w.lvalue(lhs, st)
	}
	// Single simple assignment: track aliases and fresh allocations.
	if len(s.Lhs) == 1 && len(s.Rhs) == 1 {
		if id, ok := ast.Unparen(s.Lhs[0]).(*ast.Ident); ok && id.Name != "_" {
			obj := w.a.pass.TypesInfo.Defs[id]
			if obj == nil {
				obj = w.a.pass.TypesInfo.Uses[id]
			}
			if obj != nil {
				delete(w.aliases, obj)
				delete(w.fresh, obj)
				rhs := ast.Unparen(s.Rhs[0])
				if isFreshExpr(rhs) {
					w.fresh[obj] = true
				} else if p := w.pathOf(rhs); p.Known() {
					w.aliases[obj] = p
				}
			}
		}
	}
	return st
}

// isFreshExpr reports whether e constructs a brand-new value: composite
// literal, &composite, or new(T).
func isFreshExpr(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			_, ok := e.X.(*ast.CompositeLit)
			return ok
		}
	case *ast.CallExpr:
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && id.Name == "new" {
			return true
		}
	}
	return false
}

// lvalue classifies an assignment target: the outermost field selector is
// a write; everything underneath (index expressions, the receiver chain)
// is read.
func (w *walker) lvalue(lhs ast.Expr, st state) {
	for {
		switch x := lhs.(type) {
		case *ast.ParenExpr:
			lhs = x.X
			continue
		case *ast.IndexExpr:
			w.expr(x.Index, st)
			lhs = x.X
			continue
		case *ast.StarExpr:
			lhs = x.X
			continue
		}
		break
	}
	switch x := lhs.(type) {
	case *ast.SelectorExpr:
		if w.isFieldSel(x) {
			w.emit(x, st, true, false)
			w.expr(x.X, st)
		} else {
			w.expr(x, st)
		}
	case *ast.Ident:
		if w.a.phase == phaseReport {
			if obj := w.a.pass.TypesInfo.Uses[x]; obj != nil {
				if v, ok := obj.(*types.Var); ok && v.Parent() == w.a.pass.Pkg.Scope() {
					w.a.result.GlobalWrites = append(w.a.result.GlobalWrites, GlobalWrite{
						Fn: w.declOrNil(), File: w.file, Obj: obj, Pos: x.Pos(),
					})
				}
			}
		}
	}
}

func (w *walker) declOrNil() *ast.FuncDecl {
	if w.inLit {
		return nil
	}
	return w.fi.decl
}

// expr threads the state through an expression, emitting field accesses
// and applying mutex operations and callee summaries.
func (w *walker) expr(e ast.Expr, st state) state {
	switch e := e.(type) {
	case nil:
		return st
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			// Taking a field's address hands out a mutable alias. For a
			// typed atomic field the alias can only be used through its
			// methods, so the escape itself counts as an atomic access
			// (passing &s.ctr to a helper is the idiom, not a race).
			if sel, ok := ast.Unparen(e.X).(*ast.SelectorExpr); ok && w.isFieldSel(sel) {
				atomic := IsAtomicType(w.a.pass.TypesInfo.TypeOf(sel))
				w.emit(sel, st, true, atomic)
				return w.expr(sel.X, st)
			}
		}
		st = w.expr(e.X, st)
		if e.Op == token.ARROW {
			w.emitChan(e.OpPos, e.X, false, st)
		}
		return st
	case *ast.CallExpr:
		return w.call(e, st)
	case *ast.ParenExpr:
		return w.expr(e.X, st)
	case *ast.BinaryExpr:
		st = w.expr(e.X, st)
		return w.expr(e.Y, st)
	case *ast.SelectorExpr:
		if w.isFieldSel(e) {
			w.emit(e, st, false, false)
		}
		return w.expr(e.X, st)
	case *ast.IndexExpr:
		st = w.expr(e.X, st)
		return w.expr(e.Index, st)
	case *ast.IndexListExpr:
		return w.expr(e.X, st)
	case *ast.StarExpr:
		return w.expr(e.X, st)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			st = w.expr(el, st)
		}
		return st
	case *ast.KeyValueExpr:
		return w.expr(e.Value, st)
	case *ast.TypeAssertExpr:
		return w.expr(e.X, st)
	case *ast.SliceExpr:
		st = w.expr(e.X, st)
		st = w.expr(e.Low, st)
		st = w.expr(e.High, st)
		return w.expr(e.Max, st)
	case *ast.FuncLit:
		w.walkLit(e, st, false)
		return st
	default:
		return st
	}
}

// call handles mutex operations, sync/atomic argument classification,
// mutating builtins, and same-package callee summaries / entry merging.
func (w *walker) call(e *ast.CallExpr, st state) state {
	// delete(m.f, k) and copy(m.f, src) mutate through the field.
	if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
		if _, isBuiltin := w.a.pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin &&
			(id.Name == "delete" || id.Name == "copy") && len(e.Args) > 0 {
			w.lvalue(e.Args[0], st)
			for _, arg := range e.Args[1:] {
				st = w.expr(arg, st)
			}
			return st
		}
	}
	if w.isAtomicPkgCall(e) {
		for _, arg := range e.Args {
			if ue, ok := ast.Unparen(arg).(*ast.UnaryExpr); ok && ue.Op == token.AND {
				if sel, ok := ast.Unparen(ue.X).(*ast.SelectorExpr); ok && w.isFieldSel(sel) {
					w.emit(sel, st, true, true)
					st = w.expr(sel.X, st)
					continue
				}
			}
			st = w.expr(arg, st)
		}
		return st
	}
	for _, arg := range e.Args {
		st = w.expr(arg, st)
	}
	if op, ok := w.mutexOp(e); ok {
		if op.kind == 'L' {
			return st.withLock(Lock{Mutex: op.mutex, Inst: op.inst, Mode: op.mode})
		}
		return st.withoutLock(op.mutex, op.inst, op.mode)
	}
	// Walk the receiver chain of method calls / selector funs for reads.
	if sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok {
		if w.isFieldSel(sel) {
			w.emit(sel, st, false, false)
		}
		st = w.expr(sel.X, st)
	}
	if callee := w.calleeObject(e); callee != nil {
		if fi := w.a.funcs[callee]; fi != nil {
			if w.a.phase == phaseEntries {
				held, fresh := w.translateIn(fi, e, st)
				w.a.mergeEntry(callee, held, fresh)
			}
			if w.a.phase == phaseReport && len(fi.holds) > 0 {
				w.checkHolds(fi, e, st)
			}
			st = w.applySummary(fi, e, st)
		}
	}
	if lit, ok := ast.Unparen(e.Fun).(*ast.FuncLit); ok {
		w.walkLit(lit, st, false)
	}
	return st
}

// spawnedCall handles `go f(...)`: the goroutine starts with no locks, so
// the callee's entry merges empty; the caller's state is untouched.
func (w *walker) spawnedCall(call *ast.CallExpr, st state) {
	for _, arg := range call.Args {
		if lit, isLit := arg.(*ast.FuncLit); !isLit {
			w.expr(arg, st)
		} else {
			w.walkLit(lit, state{}, true)
		}
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		w.expr(sel.X, st)
	}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		w.walkLit(lit, state{}, true)
		return
	}
	if callee := w.calleeObject(call); callee != nil && w.a.funcs[callee] != nil {
		if w.a.phase == phaseEntries {
			a := w.a
			a.mergeEntry(callee, nil, nil)
		}
	}
}

// deferredCall handles a deferred non-mutex call: it runs at exit with a
// state we do not model, so the callee's entry merges empty.
func (w *walker) deferredCall(call *ast.CallExpr, st state) {
	for _, arg := range call.Args {
		if lit, isLit := arg.(*ast.FuncLit); !isLit {
			w.expr(arg, st)
		} else {
			w.walkLit(lit, st, false)
		}
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		w.expr(sel.X, st)
	}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		w.walkLit(lit, st, false)
		return
	}
	if callee := w.calleeObject(call); callee != nil && w.a.funcs[callee] != nil {
		if w.a.phase == phaseEntries {
			w.a.mergeEntry(callee, nil, nil)
		}
	}
}

// walkLit analyzes a function literal. A literal spawned by a go statement
// runs on a new goroutine: the creator's locks do not protect it and a
// captured fresh value may already be published by the time it runs, so it
// is walked from the empty state (async). Every other literal — a call
// argument (the iterate-under-lock callback idiom), an immediately invoked
// literal, a local like a recursive dfs helper, a deferred cleanup — is
// overwhelmingly invoked synchronously in the enclosing frame and is
// walked with the state at its creation point.
func (w *walker) walkLit(lit *ast.FuncLit, st state, async bool) {
	if w.a.phase == phaseSummary || lit.Body == nil {
		return
	}
	sub := &walker{
		a:       w.a,
		fi:      w.fi,
		body:    lit.Body,
		file:    w.file,
		inLit:   true,
		aliases: map[types.Object]Path{},
		fresh:   map[types.Object]bool{},
	}
	for k, v := range w.aliases {
		sub.aliases[k] = v
	}
	entry := state{}
	if async {
		sub.rangeStart, sub.rangeEnd = lit.Pos(), lit.End()
	} else {
		sub.rangeStart, sub.rangeEnd = w.rangeStart, w.rangeEnd
		sub.entryFresh = w.entryFresh
		for k, v := range w.fresh {
			sub.fresh[k] = v
		}
		entry.held = append([]Lock(nil), st.held...)
	}
	sub.run(entry)
}

// checkHolds verifies a call against the callee's //pcpda:holds contract:
// each declared lock must be held here, on the right instance when both
// paths are known.
func (w *walker) checkHolds(fi *funcInfo, call *ast.CallExpr, st state) {
	var recvPath Path
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		recvPath = w.pathOf(sel.X)
	}
	for i, h := range fi.holds {
		want := Path{}
		if recvPath.Known() {
			want = Path{Root: recvPath.Root, Suffix: recvPath.Suffix + h.Inst.Suffix}
		}
		ok := false
		for _, l := range st.held {
			if l.Mutex != h.Mutex {
				continue
			}
			if h.Mode == ModeWrite && l.Mode != ModeWrite {
				continue
			}
			if !want.Known() || !l.Inst.Known() || l.Inst == want {
				ok = true
				break
			}
		}
		if !ok {
			w.a.result.HoldsViolations = append(w.a.result.HoldsViolations, HoldsViolation{
				Pos: call.Pos(), Callee: fi.decl.Name.Name, Spec: fi.holdsSpecs[i],
			})
		}
	}
}

// applySummary applies a same-package callee's net lock effect at the
// call site: releases first, then acquires, with paths translated through
// the receiver and arguments.
func (w *walker) applySummary(fi *funcInfo, call *ast.CallExpr, st state) state {
	sum := w.a.summaries[fi.obj]
	if sum == nil || (len(sum.acquires) == 0 && len(sum.releases) == 0) {
		return st
	}
	for _, sl := range sum.releases {
		l := w.translateOut(fi, call, sl)
		st = st.withoutLock(l.Mutex, l.Inst, l.Mode)
	}
	for _, sl := range sum.acquires {
		st = st.withLock(w.translateOut(fi, call, sl))
	}
	return st
}

// translateOut maps a summary lock (callee-rooted) to the caller's frame.
func (w *walker) translateOut(fi *funcInfo, call *ast.CallExpr, sl sumLock) Lock {
	l := Lock{Mutex: sl.mutex, Mode: sl.mode}
	switch sl.root {
	case rootGlobal:
		l.Inst = Path{Root: sl.global, Suffix: sl.suffix}
	case rootRecv:
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if p := w.pathOf(sel.X); p.Known() {
				l.Inst = Path{Root: p.Root, Suffix: p.Suffix + sl.suffix}
			}
		}
	default:
		if sl.root >= 0 && sl.root < len(call.Args) {
			if p := w.pathOf(call.Args[sl.root]); p.Known() {
				l.Inst = Path{Root: p.Root, Suffix: p.Suffix + sl.suffix}
			}
		}
	}
	return l
}

// translateIn maps the caller's held locks and freshness into the
// callee's frame: locks rooted under the receiver or an argument become
// callee-rooted; everything else keeps only its mutex identity.
func (w *walker) translateIn(fi *funcInfo, call *ast.CallExpr, st state) ([]Lock, map[types.Object]bool) {
	type target struct {
		path Path
		obj  *types.Var
	}
	var targets []target
	if fi.recv != nil {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if p := w.pathOf(sel.X); p.Known() {
				targets = append(targets, target{p, fi.recv})
			}
		}
	}
	for i, pv := range fi.params {
		if i < len(call.Args) {
			if p := w.pathOf(call.Args[i]); p.Known() {
				targets = append(targets, target{p, pv})
			}
		}
	}
	var held []Lock
	for _, l := range st.held {
		out := Lock{Mutex: l.Mutex, Mode: l.Mode} // identity survives; path may not
		if l.Inst.Known() {
			if v, ok := l.Inst.Root.(*types.Var); ok && v.Parent() == w.a.pass.Pkg.Scope() {
				out.Inst = l.Inst // package-level roots are frame-independent
			}
			for _, t := range targets {
				if l.Inst.Root == t.path.Root && suffixUnder(l.Inst.Suffix, t.path.Suffix) {
					out.Inst = Path{Root: t.obj, Suffix: l.Inst.Suffix[len(t.path.Suffix):]}
					break
				}
			}
		}
		held = append(held, out)
	}
	fresh := map[types.Object]bool{}
	for _, t := range targets {
		if t.path.Suffix == "" && w.isFreshRoot(t.path.Root) {
			fresh[t.obj] = true
		}
	}
	return held, fresh
}

// suffixUnder reports whether lock suffix s sits at or under prefix p
// (".mgr.mu" under ".mgr", not under ".mg").
func suffixUnder(s, p string) bool {
	if !strings.HasPrefix(s, p) {
		return false
	}
	return len(s) == len(p) || s[len(p)] == '.'
}

// --- classification helpers ---

// isFieldSel reports whether sel selects a struct field (not a method,
// package member, or qualified type).
func (w *walker) isFieldSel(sel *ast.SelectorExpr) bool {
	s, ok := w.a.pass.TypesInfo.Selections[sel]
	return ok && s.Kind() == types.FieldVal
}

// emit records one field access with the current held-lock set. Fields of
// package sync (mutexes, wait groups, Once) are internally synchronized
// or handled as locks; they are not data.
func (w *walker) emit(sel *ast.SelectorExpr, st state, write, atomic bool) {
	if w.a.phase != phaseReport {
		return
	}
	s, ok := w.a.pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return
	}
	field, ok := s.Obj().(*types.Var)
	if !ok {
		return
	}
	if named := namedOf(field.Type()); named != nil && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "sync" {
		return
	}
	base := w.pathOf(sel.X)
	acc := Access{
		Fn:     w.declOrNil(),
		File:   w.file,
		Sel:    sel,
		Field:  field,
		Owner:  namedOf(s.Recv()),
		Base:   base,
		Pos:    sel.Sel.Pos(),
		Write:  write,
		Atomic: atomic,
		Fresh:  base.Known() && base.Suffix == "" && w.isFreshRoot(base.Root),
		Held:   append([]Lock(nil), st.held...),
	}
	w.a.result.Accesses = append(w.a.result.Accesses, acc)
}

// emitChan records one channel operation with the current held-lock set.
func (w *walker) emitChan(arrow token.Pos, ch ast.Expr, send bool, st state) {
	if w.a.phase != phaseReport {
		return
	}
	op := ChanOp{
		Pos: arrow, Send: send, NonBlocking: w.nonblock,
		Held: append([]Lock(nil), st.held...),
	}
	if sel, ok := ast.Unparen(ch).(*ast.SelectorExpr); ok {
		if s, ok := w.a.pass.TypesInfo.Selections[sel]; ok && s.Kind() == types.FieldVal {
			op.Field, _ = s.Obj().(*types.Var)
			op.Owner = namedOf(s.Recv())
		}
	}
	w.a.result.ChanOps = append(w.a.result.ChanOps, op)
}

// isFreshRoot reports whether accesses through root cannot race: the
// value was constructed in this function, arrived provably fresh from the
// caller, or is a value-typed (copied) local.
func (w *walker) isFreshRoot(root types.Object) bool {
	if w.fresh[root] {
		return true
	}
	if w.entryFresh[root] {
		return true
	}
	// A var of plain struct/array type declared in this function (or its
	// parameter list) holds a private copy.
	v, ok := root.(*types.Var)
	if !ok || v.Pos() < w.rangeStart || v.Pos() >= w.rangeEnd {
		return false
	}
	t := v.Type()
	if _, isPtr := t.Underlying().(*types.Pointer); isPtr {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Struct, *types.Array:
		return true
	}
	return false
}

// pathOf canonicalizes an expression into a root object + field suffix,
// resolving local aliases. The zero Path means "not canonicalizable".
func (w *walker) pathOf(e ast.Expr) Path {
	switch e := e.(type) {
	case *ast.Ident:
		obj := w.a.pass.TypesInfo.Uses[e]
		if obj == nil {
			obj = w.a.pass.TypesInfo.Defs[e]
		}
		if obj == nil {
			return Path{}
		}
		if p, ok := w.aliases[obj]; ok {
			return p
		}
		if _, isVar := obj.(*types.Var); !isVar {
			return Path{}
		}
		return Path{Root: obj}
	case *ast.SelectorExpr:
		if s, ok := w.a.pass.TypesInfo.Selections[e]; ok && s.Kind() == types.FieldVal {
			base := w.pathOf(e.X)
			if !base.Known() {
				return Path{}
			}
			return base.Field(e.Sel.Name)
		}
		// Qualified package-level var: pkg.V.
		if id, ok := e.X.(*ast.Ident); ok {
			if _, isPkg := w.a.pass.TypesInfo.Uses[id].(*types.PkgName); isPkg {
				if obj := w.a.pass.TypesInfo.Uses[e.Sel]; obj != nil {
					if _, isVar := obj.(*types.Var); isVar {
						return Path{Root: obj}
					}
				}
			}
		}
		return Path{}
	case *ast.ParenExpr:
		return w.pathOf(e.X)
	case *ast.StarExpr:
		return w.pathOf(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return w.pathOf(e.X)
		}
		return Path{}
	default:
		return Path{}
	}
}

// mutexOp classifies a call as a sync.Mutex/RWMutex operation, resolving
// which mutex (field object or var) and which instance path.
func (w *walker) mutexOp(call *ast.CallExpr) (deferOp, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return deferOp{}, false
	}
	var kind byte
	mode := ModeWrite
	switch sel.Sel.Name {
	case "Lock", "TryLock":
		kind = 'L'
	case "RLock", "TryRLock":
		kind, mode = 'L', ModeRead
	case "Unlock":
		kind = 'U'
	case "RUnlock":
		kind, mode = 'U', ModeRead
	default:
		return deferOp{}, false
	}
	named := namedOf(w.a.pass.TypesInfo.TypeOf(sel.X))
	if named == nil || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return deferOp{}, false
	}
	if name := named.Obj().Name(); name != "Mutex" && name != "RWMutex" {
		return deferOp{}, false
	}
	mutex := w.mutexObject(sel.X)
	if mutex == nil {
		return deferOp{}, false
	}
	return deferOp{kind: kind, mutex: mutex, inst: w.pathOf(sel.X), mode: mode}, true
}

// mutexObject resolves the identity of the mutex being operated on: the
// struct field var for m.mu, the var object for a plain mutex variable.
func (w *walker) mutexObject(e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		if s, ok := w.a.pass.TypesInfo.Selections[e]; ok && s.Kind() == types.FieldVal {
			return s.Obj()
		}
		if id, ok := e.X.(*ast.Ident); ok {
			if _, isPkg := w.a.pass.TypesInfo.Uses[id].(*types.PkgName); isPkg {
				return w.a.pass.TypesInfo.Uses[e.Sel]
			}
		}
		return nil
	case *ast.Ident:
		return w.a.pass.TypesInfo.Uses[e]
	case *ast.StarExpr:
		return w.mutexObject(e.X)
	default:
		return nil
	}
}

// isAtomicPkgCall reports whether the call targets a sync/atomic
// package-level function (atomic.AddInt64 style).
func (w *walker) isAtomicPkgCall(call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pkg, ok := w.a.pass.TypesInfo.Uses[id].(*types.PkgName)
	return ok && pkg.Imported().Path() == "sync/atomic"
}

// calleeObject resolves a call to its callee's object when it is a plain
// function or method reference.
func (w *walker) calleeObject(call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return w.a.pass.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		return w.a.pass.TypesInfo.Uses[fun.Sel]
	}
	return nil
}

// namedOf unwraps pointers and aliases down to a *types.Named.
func namedOf(t types.Type) *types.Named {
	for t != nil {
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
	return nil
}

// IsAtomicType reports whether t is one of sync/atomic's typed values
// (atomic.Int64, atomic.Pointer[T], ...), whose every access is atomic by
// construction.
func IsAtomicType(t types.Type) bool {
	// Deliberately no pointer deref: a *atomic.Int64 field is an ordinary
	// reference — assigning the pointer is a plain write; only the pointee
	// is atomic storage.
	named, _ := types.Unalias(t).(*types.Named)
	return named != nil && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "sync/atomic"
}

// IsMutexType reports whether t is sync.Mutex or sync.RWMutex (pointer
// included); RW additionally reports the reader/writer flavor.
func IsMutexType(t types.Type) (isMutex, rw bool) {
	named := namedOf(t)
	if named == nil || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return false, false
	}
	switch named.Obj().Name() {
	case "Mutex":
		return true, false
	case "RWMutex":
		return true, true
	}
	return false, false
}
