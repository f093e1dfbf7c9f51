// Package atomics proves atomic-publication discipline (DESIGN.md §10):
//
//  1. Mixed-access ban, module-wide: a plain-typed field touched through
//     sync/atomic anywhere (atomic.AddInt64(&s.f, ...)) must be touched
//     atomically everywhere in the package — one plain read racing an
//     atomic writer is still a data race. Typed atomic.* fields are
//     atomic by construction; assigning over one is flagged instead.
//  2. //pcpda:lockfree files re-verified at access level: every field
//     read in a marked file must resolve to an atomic load (typed
//     atomic.* field or sync/atomic call), an immutable-after-publication
//     field (//pcpda:guardedby immutable — which covers version-chain
//     payloads hanging off an atomic head), or a value still under
//     construction; every field write must be atomic or to a fresh value;
//     package-level variables may not be written at all. This deepens the
//     PR 8 marker from "doesn't import lock" (capability analyzer) to
//     "provably touches no guarded state".
//
// Cross-package field accesses in a lockfree file are flagged unless the
// field's type is a typed atomic: annotations from other packages are not
// visible, so such state is unprovable here and belongs behind a method.
package atomics

import (
	"go/ast"
	"go/types"

	"pcpda/internal/lint"
	"pcpda/internal/lint/capability"
	"pcpda/internal/lint/flow"
)

// Analyzer is the atomics analyzer.
var Analyzer = &lint.Analyzer{
	Name: "atomics",
	Doc: "fields touched via sync/atomic must be touched atomically everywhere; " +
		"//pcpda:lockfree files may read only atomic, immutable, or fresh state",
	Run: run,
}

func run(pass *lint.Pass) error {
	res := flow.Analyze(pass)
	checkMixed(pass, res)
	checkLockfree(pass, res)
	return nil
}

// checkMixed enforces the no-mixed-access rule on plain-typed fields and
// the no-overwrite rule on typed atomic fields.
func checkMixed(pass *lint.Pass, res *flow.Result) {
	guards := res.Guards
	atomicUse := map[*types.Var]bool{}
	for _, acc := range res.Accesses {
		if acc.Atomic {
			atomicUse[acc.Field] = true
		}
	}
	for _, acc := range res.Accesses {
		if flow.IsAtomicType(acc.Field.Type()) {
			if acc.Write && !acc.Fresh && !acc.Atomic {
				pass.Reportf(acc.Pos,
					"plain write over atomic field %s (path %s); atomics must be mutated through their methods",
					fieldName(guards, acc.Field), acc.Base.String()+"."+acc.Field.Name())
			}
			continue
		}
		if !atomicUse[acc.Field] || acc.Atomic || acc.Fresh {
			continue
		}
		pass.Reportf(acc.Pos,
			"field %s is accessed via sync/atomic elsewhere but plainly here (%s %s); mixed access races the atomic side",
			fieldName(guards, acc.Field), verb(acc), acc.Base.String()+"."+acc.Field.Name())
	}
}

// checkLockfree re-verifies //pcpda:lockfree files at field-access level.
func checkLockfree(pass *lint.Pass, res *flow.Result) {
	guards := res.Guards
	lockfree := map[*ast.File]bool{}
	for _, f := range pass.Files {
		if capability.HasLockfreeMarker(f) {
			lockfree[f] = true
		}
	}
	if len(lockfree) == 0 {
		return
	}
	for _, acc := range res.Accesses {
		if !lockfree[acc.File] {
			continue
		}
		if acc.Atomic || acc.Fresh || flow.IsAtomicType(acc.Field.Type()) {
			continue
		}
		path := acc.Base.String() + "." + acc.Field.Name()
		if acc.Field.Pkg() != pass.Pkg {
			pass.Reportf(acc.Pos,
				"lockfree file %s cross-package field %s (path %s); foreign state is unprovable — use an accessor on the owning package",
				verb(acc)+"s", fieldName(guards, acc.Field), path)
			continue
		}
		g, annotated := guards.Of(acc.Field)
		if annotated && g.Kind == flow.GuardImmutable {
			if acc.Write {
				pass.Reportf(acc.Pos,
					"lockfree file writes immutable field %s after construction (path %s)",
					fieldName(guards, acc.Field), path)
			}
			continue
		}
		pass.Reportf(acc.Pos,
			"lockfree file %s field %s (path %s), which is neither atomic, //pcpda:guardedby immutable, nor freshly constructed",
			verb(acc)+"s", fieldName(guards, acc.Field), path)
	}
	for _, gw := range res.GlobalWrites {
		if lockfree[gw.File] {
			pass.Reportf(gw.Pos,
				"lockfree file writes package-level variable %s; published state must go through an atomic",
				gw.Obj.Name())
		}
	}
}

func verb(acc flow.Access) string {
	if acc.Write {
		return "write"
	}
	return "read"
}

// fieldName renders "Store.chains" (declaring struct when known).
func fieldName(guards *flow.Guards, field *types.Var) string {
	if si, ok := guards.OwnerOf(field); ok {
		return si.Named.Obj().Name() + "." + field.Name()
	}
	return field.Name()
}
