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
// The kernel's own invariant is I5: job ids are dense and Status agrees with
// active-list membership. The rest — locks, blockers, inherited priorities —
// is cc.CheckState, the audit the live manager runs too; the first of its
// violations is reported.
func (k *Kernel) checkInvariants() *InvariantError {
	fail := func(format string, args ...any) *InvariantError {
		return &InvariantError{Tick: k.now, Detail: fmt.Sprintf(format, args...)}
	}

	live := make(map[rt.JobID]bool, len(k.active))
	for _, j := range k.active {
		live[j.ID] = true
	}
	for i, j := range k.jobs {
		if rt.JobID(i) != j.ID {
			return fail("job id %d stored at index %d", j.ID, i)
		}
		if wantLive := j.Status == cc.Ready || j.Status == cc.Blocked; live[j.ID] != wantLive {
			return fail("job %d status %v but active=%v", j.ID, j.Status, live[j.ID])
		}
	}

	if probs := cc.CheckState(k); len(probs) > 0 {
		return fail("%s", probs[0])
	}
	return nil
}
