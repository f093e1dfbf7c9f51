// Guard annotations: the //pcpda:guardedby field marker and its
// resolution against the declaring struct. The table is part of flow's
// Result because both field-level analyzers (guardedby, atomics) read it.

package flow

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"pcpda/internal/lint"
)

// GuardMarker is the struct-field annotation naming the mutex that guards
// a field, or one of the special forms:
//
//	//pcpda:guardedby mu          — a mutex field of the same struct
//	//pcpda:guardedby mgr.mu      — a mutex reached through a field path
//	//pcpda:guardedby Manager.mu  — a mutex field of a named same-package type
//	//pcpda:guardedby immutable   — written only during construction
//	//pcpda:guardedby none        — deliberately unguarded (single-owner);
//	                                opts the field out of inference
const GuardMarker = "//pcpda:guardedby"

// GuardKind classifies a field's concurrency contract.
type GuardKind uint8

const (
	// GuardMutex: the field may be touched only with Mutex held.
	GuardMutex GuardKind = 1 + iota
	// GuardImmutable: the field is written only while its struct is being
	// constructed and is read-only once published.
	GuardImmutable
	// GuardNone: explicitly unguarded (owned by a single goroutine by
	// design); the annotation documents the ownership and silences
	// inference.
	GuardNone
)

// Guard is one field's resolved contract.
type Guard struct {
	Kind  GuardKind
	Mutex *types.Var // the guarding mutex field (GuardMutex only)
	RW    bool       // guard is an RWMutex: reads are legal under RLock
	// Rel is the annotation's field path relative to the declaring struct
	// ("mu", "mgr.mu"). Empty for the TypeName.field form.
	Rel []string
	// Foreign marks guards that cannot be instance-matched against the
	// access path: the TypeName.field form, or a path that crosses into
	// another struct. Matching falls back to mutex identity.
	Foreign bool
	Spec    string // annotation text, for diagnostics
}

// BadGuard is an annotation that failed to resolve.
type BadGuard struct {
	Pos    token.Pos
	Field  string
	Spec   string
	Reason string
}

// StructInfo describes one struct type declared in the package.
type StructInfo struct {
	Named   *types.Named
	Struct  *types.Struct
	Mutexes []*types.Var // sync.Mutex / sync.RWMutex fields, in order
}

// Guards is the package's guard table.
type Guards struct {
	byField map[*types.Var]Guard
	owner   map[*types.Var]*StructInfo
	// Bad collects unresolvable annotations; the guardedby analyzer
	// reports them (atomics must not double-report).
	Bad []BadGuard
}

// Of returns the guard declared for a field.
func (g *Guards) Of(f *types.Var) (Guard, bool) {
	gd, ok := g.byField[f]
	return gd, ok
}

// OwnerOf returns the struct a field was declared in, when that struct is
// declared in the analyzed package.
func (g *Guards) OwnerOf(f *types.Var) (*StructInfo, bool) {
	si, ok := g.owner[f]
	return si, ok
}

// parseGuards scans the package's struct declarations for GuardMarker
// annotations and resolves them.
func parseGuards(pass *lint.Pass) *Guards {
	g := &Guards{
		byField: map[*types.Var]Guard{},
		owner:   map[*types.Var]*StructInfo{},
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				g.parseStruct(pass, ts, st)
			}
		}
	}
	return g
}

func (g *Guards) parseStruct(pass *lint.Pass, ts *ast.TypeSpec, st *ast.StructType) {
	tn, ok := pass.TypesInfo.Defs[ts.Name].(*types.TypeName)
	if !ok {
		return
	}
	named, ok := tn.Type().(*types.Named)
	if !ok {
		return
	}
	stype, ok := named.Underlying().(*types.Struct)
	if !ok {
		return
	}
	si := &StructInfo{Named: named, Struct: stype}
	for i := range stype.NumFields() {
		fv := stype.Field(i)
		if isMutex, _ := IsMutexType(fv.Type()); isMutex {
			si.Mutexes = append(si.Mutexes, fv)
		}
	}
	for _, field := range st.Fields.List {
		spec, ok := guardSpec(field)
		var fvars []*types.Var
		for _, name := range field.Names {
			if fv, okv := pass.TypesInfo.Defs[name].(*types.Var); okv {
				fvars = append(fvars, fv)
			}
		}
		for _, fv := range fvars {
			g.owner[fv] = si
		}
		if !ok {
			continue
		}
		if len(fvars) == 0 {
			g.Bad = append(g.Bad, BadGuard{
				Pos: field.Pos(), Field: "(embedded)", Spec: spec,
				Reason: "guardedby on an embedded field is not supported",
			})
			continue
		}
		guard, reason := g.resolve(pass, named, stype, spec)
		if reason != "" {
			g.Bad = append(g.Bad, BadGuard{
				Pos: field.Pos(), Field: fvars[0].Name(), Spec: spec, Reason: reason,
			})
			continue
		}
		for _, fv := range fvars {
			g.byField[fv] = guard
		}
	}
}

// guardSpec extracts the annotation argument from a field's doc or line
// comment.
func guardSpec(field *ast.Field) (string, bool) {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			text := strings.TrimSpace(c.Text)
			if rest, ok := strings.CutPrefix(text, GuardMarker); ok {
				// Keep only the first token: prose may follow.
				rest = strings.TrimSpace(rest)
				if i := strings.IndexAny(rest, " \t"); i >= 0 {
					rest = rest[:i]
				}
				return rest, true
			}
		}
	}
	return "", false
}

// resolve turns an annotation argument into a Guard, walking the field
// path from the declaring struct (own form) or a named same-package type
// (TypeName.field form).
func (g *Guards) resolve(pass *lint.Pass, owner *types.Named, stype *types.Struct, spec string) (Guard, string) {
	switch spec {
	case "":
		return Guard{}, "missing mutex path (use a field path, \"immutable\", or \"none\")"
	case "immutable":
		return Guard{Kind: GuardImmutable, Spec: spec}, ""
	case "none":
		return Guard{Kind: GuardNone, Spec: spec}, ""
	}
	segs := strings.Split(spec, ".")
	// Own form: the first segment is a field of the declaring struct.
	if fieldByName(stype, segs[0]) != nil {
		mutex, crossed, reason := walkFieldPath(stype, segs)
		if reason != "" {
			return Guard{}, reason
		}
		_, rw := IsMutexType(mutex.Type())
		return Guard{
			Kind: GuardMutex, Mutex: mutex, RW: rw, Rel: segs,
			Foreign: crossed, Spec: spec,
		}, ""
	}
	// TypeName.field form.
	if len(segs) < 2 {
		return Guard{}, "\"" + spec + "\" names neither a field of this struct nor a TypeName.field"
	}
	tn, ok := pass.Pkg.Scope().Lookup(segs[0]).(*types.TypeName)
	if !ok {
		return Guard{}, "\"" + segs[0] + "\" is neither a field of this struct nor a package-level type"
	}
	tstruct, ok := tn.Type().Underlying().(*types.Struct)
	if !ok {
		return Guard{}, "type " + segs[0] + " is not a struct"
	}
	mutex, _, reason := walkFieldPath(tstruct, segs[1:])
	if reason != "" {
		return Guard{}, reason
	}
	_, rw := IsMutexType(mutex.Type())
	return Guard{Kind: GuardMutex, Mutex: mutex, RW: rw, Foreign: true, Spec: spec}, ""
}

// walkFieldPath follows a dotted field path through struct types
// (dereferencing pointers) and requires the final field to be a mutex.
// crossed reports whether the path left the starting struct.
func walkFieldPath(start *types.Struct, segs []string) (mutex *types.Var, crossed bool, reason string) {
	cur := start
	var fv *types.Var
	for i, seg := range segs {
		if cur == nil {
			return nil, false, "\"" + segs[i-1] + "\" is not a struct; cannot select \"" + seg + "\""
		}
		fv = fieldByName(cur, seg)
		if fv == nil {
			return nil, false, "no field \"" + seg + "\" on the guarded path"
		}
		if i < len(segs)-1 {
			crossed = true
			t := fv.Type()
			if p, okp := t.Underlying().(*types.Pointer); okp {
				t = p.Elem()
			}
			next, oks := t.Underlying().(*types.Struct)
			if !oks {
				cur = nil
				continue
			}
			cur = next
		}
	}
	if isMutex, _ := IsMutexType(fv.Type()); !isMutex {
		return nil, false, "\"" + segs[len(segs)-1] + "\" is not a sync.Mutex or sync.RWMutex"
	}
	return fv, crossed, ""
}

func fieldByName(st *types.Struct, name string) *types.Var {
	for i := range st.NumFields() {
		if st.Field(i).Name() == name {
			return st.Field(i)
		}
	}
	return nil
}

// Covered reports whether a mutex guard is satisfied at this access: some
// held lock is the right mutex, strong enough for the access (writes need
// an exclusive hold), and — when both sides have a known instance path —
// the right instance.
func (acc *Access) Covered(g Guard) bool {
	if g.Kind != GuardMutex {
		return false
	}
	needW := acc.Write || !g.RW
	exact := !g.Foreign && len(g.Rel) == 1 && acc.Base.Known()
	var want Path
	if exact {
		want = acc.Base.Field(g.Rel[0])
	}
	for _, l := range acc.Held {
		if l.Mutex != types.Object(g.Mutex) {
			continue
		}
		if needW && l.Mode != ModeWrite {
			continue
		}
		if !exact || !l.Inst.Known() || l.Inst == want {
			return true
		}
	}
	return false
}
