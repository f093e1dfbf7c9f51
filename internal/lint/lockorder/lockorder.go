// Package lockorder enforces the live manager's mutex/channel discipline
// (DESIGN.md §10). The targeted-wakeup design (rtm/wait.go) is correct only
// under two orderings:
//
//  1. every wait-node send (n.ch <- token) happens while the manager mutex
//     is held — registration and wake must be serialized, or a wake can
//     race a park and be delivered to a node not yet filed (lost wakeup);
//  2. the manager mutex is never held across a blocking channel receive — a
//     parked goroutine holding m.mu would deadlock the whole manager, since
//     every wake path must first acquire m.mu. A receive in a select with a
//     default clause cannot block and is allowed (waitNode.drain).
//
// The analyzer is a filter over flow.Analyze's channel operations, each of
// which carries the mutexes that must be held there: across same-package
// calls, through balanced unlock/lock windows, with a helper reached both
// locked and unlocked counting as unlocked.
package lockorder

import (
	"fmt"
	"go/types"
	"slices"

	"pcpda/internal/lint"
	"pcpda/internal/lint/flow"
)

// TargetPkgs are the packages holding the manager mutex discipline.
var TargetPkgs = []string{"pcpda/internal/rtm"}

// The names the contract is written in: the manager mutex is field mu of
// type Manager, a wake channel is field ch of type waitNode.
const (
	managerType   = "Manager"
	managerMutex  = "mu"
	waitNodeType  = "waitNode"
	waitChanField = "ch"
)

// Analyzer is the lockorder analyzer.
var Analyzer = &lint.Analyzer{
	Name: "lockorder",
	Doc: "the rtm manager mutex must be held at every wait-node send and released " +
		"before any blocking channel receive",
	Run: run,
}

func run(pass *lint.Pass) error {
	if !slices.Contains(TargetPkgs, pass.PkgPath) {
		return nil
	}
	var mu types.Object
	if tn := pass.Pkg.Scope().Lookup(managerType); tn != nil {
		mu, _, _ = types.LookupFieldOrMethod(tn.Type(), true, pass.Pkg, managerMutex)
	}
	if mu == nil {
		return fmt.Errorf("no %s.%s in %s: the contract names a mutex that is gone", managerType, managerMutex, pass.PkgPath)
	}
	for _, op := range flow.Analyze(pass).ChanOps {
		held := slices.ContainsFunc(op.Held, func(l flow.Lock) bool { return l.Mutex == mu })
		switch {
		case op.Send && !held && op.Owner != nil && op.Owner.Obj().Name() == waitNodeType && op.Field.Name() == waitChanField:
			pass.Reportf(op.Pos, "wait-node send without holding the manager mutex: a wake can race registration and be lost")
		case !op.Send && held && !op.NonBlocking:
			pass.Reportf(op.Pos, "channel receive while holding the manager mutex: wake paths need the mutex, so this can deadlock the manager")
		}
	}
	return nil
}
