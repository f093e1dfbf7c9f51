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
// Invariants:
//
//	I1: every lock in the table is held by a live (Ready/Blocked) job.
//	I2: a Blocked job's blockers are live jobs, never itself.
//	I3: running priorities never sit below base priorities, and a job's
//	    run priority exceeds its base only if it (transitively) blocks a
//	    job of at least that priority.
//	I4: a job's recorded DataRead is consistent with the read locks it
//	    holds (strict protocols release only at commit; CCP may release
//	    read locks early, so DataRead ⊇ held read locks always holds).
//	I5: job ids are dense and Status/active-list membership agree.
func (k *Kernel) checkInvariants() *InvariantError {
	fail := func(format string, args ...any) *InvariantError {
		return &InvariantError{Tick: k.now, Detail: fmt.Sprintf(format, args...)}
	}

	live := make(map[rt.JobID]*cc.Job, len(k.active))
	for _, j := range k.active {
		live[j.ID] = j
	}

	// I5: membership agreement.
	for i, j := range k.jobs {
		if rt.JobID(i) != j.ID {
			return fail("job id %d stored at index %d", j.ID, i)
		}
		_, isLive := live[j.ID]
		wantLive := j.Status == cc.Ready || j.Status == cc.Blocked
		if isLive != wantLive {
			return fail("job %d status %v but active=%v", j.ID, j.Status, isLive)
		}
	}

	// I1 + I4.
	violation := ""
	k.locks.EachReadLock(func(x rt.Item, holder rt.JobID) {
		j, ok := live[holder]
		if !ok {
			violation = fmt.Sprintf("read lock on %d held by dead job %d", x, holder)
			return
		}
		if !j.DataRead.Has(x) {
			violation = fmt.Sprintf("job %d read-locks %d without recording the read", holder, x)
		}
	})
	if violation != "" {
		return fail("%s", violation)
	}
	k.locks.EachWriteLock(func(x rt.Item, holder rt.JobID) {
		if _, ok := live[holder]; !ok {
			violation = fmt.Sprintf("write lock on %d held by dead job %d", x, holder)
		}
	})
	if violation != "" {
		return fail("%s", violation)
	}

	// I2.
	for _, j := range k.active {
		if j.Status != cc.Blocked {
			continue
		}
		for _, b := range j.Blockers {
			if b == j.ID {
				return fail("job %d blocks itself", j.ID)
			}
			// Blockers may have committed since the last retry (stale but
			// harmless: the next dispatch refreshes them); a NEGATIVE or
			// never-assigned id is a real bug.
			if b < 0 || int(b) >= len(k.jobs) {
				return fail("job %d blocked by unknown job %d", j.ID, b)
			}
		}
	}

	// I3: inheritance is justified.
	for _, j := range k.active {
		if j.RunPri < j.BasePri() {
			return fail("job %d runs below its base priority (%d < %d)", j.ID, j.RunPri, j.BasePri())
		}
		if j.RunPri == j.BasePri() {
			continue
		}
		// Someone this job transitively blocks must have priority ≥ RunPri.
		if !k.inheritanceJustified(j) {
			return fail("job %d inherits %d without a blocked beneficiary", j.ID, j.RunPri)
		}
	}

	return nil
}

// inheritanceJustified checks that some blocked job with run priority ≥
// j.RunPri (transitively) names j as a blocker.
func (k *Kernel) inheritanceJustified(j *cc.Job) bool {
	for _, o := range k.active {
		if o.Status != cc.Blocked || o.RunPri < j.RunPri {
			continue
		}
		if k.blocksTransitively(o, j, map[rt.JobID]bool{}) {
			return true
		}
	}
	return false
}

func (k *Kernel) blocksTransitively(waiter, candidate *cc.Job, seen map[rt.JobID]bool) bool {
	if seen[waiter.ID] {
		return false
	}
	seen[waiter.ID] = true
	for _, b := range waiter.Blockers {
		if b == candidate.ID {
			return true
		}
		next := k.Job(b)
		if next != nil && next.Status == cc.Blocked && k.blocksTransitively(next, candidate, seen) {
			return true
		}
	}
	return false
}
