package sched

import (
	"fmt"

	"pcpda/internal/cc"
	"pcpda/internal/rt"
)

// InvariantError describes a violated kernel invariant (Config.Paranoid).
type InvariantError struct {
	Tick   rt.Ticks
	Detail string
}

func (e *InvariantError) Error() string {
	return fmt.Sprintf("sched: invariant violated at t=%d: %s", e.Tick, e.Detail)
}

// checkInvariants validates the kernel's structural invariants. It is run
// every tick under Config.Paranoid (the randomized test sweeps enable it;
// production runs leave it off — it is O(jobs × locks) per tick).
//
// The kernel's own invariant is I5: the live jobs are released ones, in
// ascending id order, each Ready or Blocked, and a record says a job is live
// exactly when it is on the active list. The rest — locks, blockers,
// inherited priorities — is cc.CheckState, the audit the live manager runs
// too; the first of its violations is reported.
func (k *Kernel) checkInvariants() *InvariantError {
	fail := func(format string, args ...any) *InvariantError {
		return &InvariantError{Tick: k.now, Detail: fmt.Sprintf(format, args...)}
	}

	prev := rt.JobID(-1)
	for _, j := range k.active {
		if j.ID <= prev || int(j.ID) >= len(k.res.Jobs) {
			return fail("active job %d follows job %d, %d jobs released", j.ID, prev, len(k.res.Jobs))
		}
		if j.Status != cc.Ready && j.Status != cc.Blocked {
			return fail("job %d status %v but active=true", j.ID, j.Status)
		}
		prev = j.ID
	}
	a := 0 // the records and the active list are both in id order
	for i, r := range k.res.Jobs {
		live := a < len(k.active) && k.active[a].ID == rt.JobID(i)
		if live {
			a++
		}
		if wantLive := r.Status == cc.Ready || r.Status == cc.Blocked; live != wantLive {
			return fail("job %d status %v but active=%v", i, r.Status, live)
		}
	}

	if probs := cc.CheckState(k); len(probs) > 0 {
		return fail("%s", probs[0])
	}
	return nil
}
