package sim

import (
	"fmt"
	"slices"
	"strings"

	"pcpda/internal/analysis"
	"pcpda/internal/db"
	"pcpda/internal/history"
	"pcpda/internal/rt"
	"pcpda/internal/sched"
	"pcpda/internal/txn"
)

// promises is what a protocol guarantees about every run. The checks are
// observers of a finished run: none of them is evaluated inside the
// scheduler.
type promises struct {
	// serializable: the history has no dirty read and no cycle, and the
	// final store is one the history explains.
	serializable bool
	// deadlockFree: the waits-for graph never closes a cycle.
	deadlockFree bool
	// commitOrder: serialization order is commit order (Theorem 3, Lemma 9),
	// no job restarts, and the Table-1 side condition never refuses on the
	// LC2 or LC3 path (no table1-on-* line in the tally).
	commitOrder bool
	// bounded: with no deadline missed, a job is blocked by at most one
	// lower-priority job (single blocking), of a template in its
	// analysis.BTS under kind, and its blocking is within WorstCaseBlocking.
	bounded bool
	kind    analysis.Kind
}

var pcpdaPromises = promises{serializable: true, deadlockFree: true, commitOrder: true, bounded: true, kind: analysis.PCPDA}

// Verify checks a finished run of the named protocol against everything
// that protocol promises, and returns one line per broken promise; a clean
// run returns nil. A run made with sched.Config.Paranoid also owes the
// kernel's structural audit, whatever the protocol.
func Verify(protocol string, res *sched.Result) []string {
	f, ok := factories[protocol]
	if !ok {
		return []string{fmt.Sprintf("unknown protocol %q", protocol)}
	}
	pr := f.promises
	var out []string
	if res.Invariant != nil {
		out = append(out, "invariant: "+res.Invariant.Error())
	}
	if pr.deadlockFree && res.Deadlocked {
		out = append(out, fmt.Sprintf("deadlock at t=%d involving jobs %v", res.DeadlockAt, res.DeadlockCycle))
	}
	rep := res.History.Check()
	if pr.serializable {
		if !rep.Serializable {
			out = append(out, fmt.Sprintf("history not serializable: %v", rep.Violations))
		}
		out = append(out, unexplainedStore(res, f.make().Deferred())...)
	}
	if pr.commitOrder {
		if !rep.CommitOrderOK {
			out = append(out, fmt.Sprintf("serialization order is not commit order: %v", rep.Violations))
		}
		if aborted := rep.AbortedRuns - res.Aborts - res.FaultAborts; res.Restarts != 0 || aborted > 0 {
			out = append(out, fmt.Sprintf("%d restarts and %d aborted runs beside deadline and fault aborts", res.Restarts, aborted))
		}
		for _, r := range res.Decisions {
			if strings.HasPrefix(r.Rule, "table1-on-") {
				out = append(out, fmt.Sprintf("%s refused a read (%d fresh denials)", r.Rule, r.Blocks))
			}
		}
	}
	if res.Misses != 0 || !pr.bounded {
		return out
	}
	ceil := txn.ComputeCeilings(res.Set)
	for _, j := range res.Jobs {
		var lower []rt.JobID
		for _, b := range j.EverBlockedBy {
			if res.Jobs[b].BasePri() < j.BasePri() {
				lower = append(lower, b)
			}
		}
		if len(lower) > 1 {
			out = append(out, fmt.Sprintf("job %d (%s) blocked by %d lower-priority jobs %v", j.ID, j.Tmpl.Name, len(lower), lower))
		}
		if len(lower) == 0 && j.InvBlockTicks == 0 {
			continue
		}
		bts := analysis.BTS(res.Set, ceil, pr.kind, j.Tmpl)
		for _, b := range lower {
			if l := res.Jobs[b].Tmpl; !slices.Contains(bts, l) {
				out = append(out, fmt.Sprintf("job %d (%s) blocked by %s, outside its BTS", j.ID, j.Tmpl.Name, l.Name))
			}
		}
		if b := analysis.WorstCaseBlocking(res.Set, ceil, pr.kind, j.Tmpl); j.InvBlockTicks > b {
			out = append(out, fmt.Sprintf("job %d (%s) effectively blocked %d ticks, above B_i = %d", j.ID, j.Tmpl.Name, j.InvBlockTicks, b))
		}
	}
	return out
}

// unexplainedStore reports every item whose final value the history does
// not explain. A deferred protocol installs at commit, so the store must be
// a serial replay of the committed runs; an in-place protocol may leave an
// in-flight job's write behind, so the store must hold the last write of a
// run that did not abort.
func unexplainedStore(res *sched.Result, deferred bool) []string {
	h := res.History
	var want map[rt.Item]db.RunID
	if deferred {
		want = h.LastWriters()
	} else {
		want = map[rt.Item]db.RunID{}
		aborted := h.Aborted()
		for _, op := range h.Ops {
			if op.Kind == history.WriteOp && !aborted[op.Run] {
				want[op.Item] = op.Run
			}
		}
	}
	var out []string
	for it := rt.Item(0); int(it) < res.Set.Catalog.Len(); it++ {
		run, ok := want[it]
		if !ok {
			continue
		}
		if _, _, got := res.Store.Read(it); got != run {
			out = append(out, fmt.Sprintf("final value of %s written by run %d, history says run %d", res.Set.Catalog.Name(it), got, run))
		}
	}
	return out
}
