// Package guardedby proves field-level mutex discipline (DESIGN.md §10):
// every access to a field annotated //pcpda:guardedby <mutexField> must
// happen while that mutex is statically held (an exclusive hold for
// writes; a read hold suffices for reads under an RWMutex) or while the
// owning struct is still being constructed. Unannotated fields are
// inferred: a field ever accessed under exactly one of its struct's own
// mutexes is assumed guarded by it, and the remaining accesses must
// agree. Violations name the unguarded access path.
//
// The analysis is flow.Analyze's reaching-locks dataflow: path-sensitive
// within a function, summary/entry fixpoints across same-package calls,
// so helpers entered with the lock held and helpers that lock on the
// caller's behalf both check out. //pcpda:guardedby immutable restricts
// writes to construction; //pcpda:guardedby none documents single-owner
// fields and opts them out of inference.
package guardedby

import (
	"go/types"

	"pcpda/internal/lint"
	"pcpda/internal/lint/flow"
)

// Analyzer is the guardedby analyzer.
var Analyzer = &lint.Analyzer{
	Name: "guardedby",
	Doc: "fields annotated //pcpda:guardedby (or inferred from consistent locking) " +
		"must be accessed with their mutex held or from the constructor",
	Run: run,
}

func run(pass *lint.Pass) error {
	res := flow.Analyze(pass)
	guards := res.Guards
	for _, bad := range guards.Bad {
		pass.Reportf(bad.Pos, "unresolvable //pcpda:guardedby %s on field %s: %s",
			bad.Spec, bad.Field, bad.Reason)
	}
	for _, bad := range res.BadHolds {
		pass.Reportf(bad.Pos, "unresolvable //pcpda:holds %s on %s: %s",
			bad.Spec, bad.Fn, bad.Reason)
	}
	for _, v := range res.HoldsViolations {
		pass.Reportf(v.Pos, "call to %s, which is //pcpda:holds %s, without the mutex held",
			v.Callee, v.Spec)
	}

	byField := map[*types.Var][]flow.Access{}
	for _, acc := range res.Accesses {
		byField[acc.Field] = append(byField[acc.Field], acc)
	}
	for _, acc := range res.Accesses {
		g, ok := guards.Of(acc.Field)
		if !ok {
			continue
		}
		checkAnnotated(pass, guards, acc, g)
	}
	for field, accs := range byField {
		if _, annotated := guards.Of(field); annotated {
			continue
		}
		if g, ok := infer(guards, field, accs); ok {
			for _, acc := range accs {
				if acc.Fresh || acc.Covered(g) {
					continue
				}
				pass.Reportf(acc.Pos,
					"field %s is accessed under %s elsewhere but not here (%s %s); hold the mutex or annotate //pcpda:guardedby",
					fieldName(guards, field), g.Spec, accessVerb(acc), accessPath(acc))
			}
		}
	}
	return nil
}

// checkAnnotated enforces one access against the field's declared guard.
func checkAnnotated(pass *lint.Pass, guards *flow.Guards, acc flow.Access, g flow.Guard) {
	switch g.Kind {
	case flow.GuardNone:
		return
	case flow.GuardImmutable:
		if acc.Write && !acc.Fresh {
			pass.Reportf(acc.Pos,
				"field %s is //pcpda:guardedby immutable but written after construction (%s)",
				fieldName(guards, acc.Field), accessPath(acc))
		}
		return
	case flow.GuardMutex:
		if acc.Fresh || acc.Covered(g) {
			return
		}
		pass.Reportf(acc.Pos,
			"field %s is //pcpda:guardedby %s but %s here without it (%s)",
			fieldName(guards, acc.Field), g.Spec, accessVerb(acc), accessPath(acc))
	}
}

// infer proposes a guard for an unannotated field: exactly one of the
// declaring struct's own mutexes covers at least one non-fresh access.
// Self-synchronized field types (atomics, channels, funcs) and fields of
// structs without mutexes never infer.
func infer(guards *flow.Guards, field *types.Var, accs []flow.Access) (flow.Guard, bool) {
	si, ok := guards.OwnerOf(field)
	if !ok || len(si.Mutexes) == 0 {
		return flow.Guard{}, false
	}
	if flow.IsAtomicType(field.Type()) {
		return flow.Guard{}, false
	}
	switch field.Type().Underlying().(type) {
	case *types.Chan, *types.Signature:
		return flow.Guard{}, false
	}
	var candidate flow.Guard
	seen := 0
	for _, m := range si.Mutexes {
		_, rw := flow.IsMutexType(m.Type())
		g := flow.Guard{Kind: flow.GuardMutex, Mutex: m, RW: rw,
			Rel: []string{m.Name()}, Spec: m.Name()}
		covers := false
		for _, acc := range accs {
			if !acc.Fresh && acc.Covered(g) {
				covers = true
				break
			}
		}
		if covers {
			candidate = g
			seen++
		}
	}
	if seen != 1 {
		return flow.Guard{}, false
	}
	return candidate, true
}

// fieldName renders "Manager.active" (declaring struct when known).
func fieldName(guards *flow.Guards, field *types.Var) string {
	if si, ok := guards.OwnerOf(field); ok {
		return si.Named.Obj().Name() + "." + field.Name()
	}
	return field.Name()
}

func accessVerb(acc flow.Access) string {
	if acc.Write {
		return "written"
	}
	return "read"
}

func accessPath(acc flow.Access) string {
	return "path " + acc.Base.String() + "." + acc.Field.Name()
}
