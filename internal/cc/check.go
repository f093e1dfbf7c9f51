package cc

import (
	"fmt"
	"slices"

	"pcpda/internal/rt"
)

// CycleScratch is WaitCycle's reusable state: the DFS path and the jobs whose
// search finished without a cycle. The zero value is ready; once warm, a
// search allocates nothing.
type CycleScratch struct {
	path, done []rt.JobID
}

// WaitCycle looks for a waits-for cycle reachable from start. An edge runs
// from a Blocked job to each of its Blockers that env.Job resolves and that
// is Blocked too: a Ready blocker can run and release. The cycle comes back
// as the suffix of the DFS path that closes it, in path order, valid until s
// is used again; nil when there is none. The kernel asks at every changed
// block, the manager at every park.
//
//pcpda:alloc-free
func WaitCycle(env Env, start *Job, s *CycleScratch) []rt.JobID {
	s.path, s.done = s.path[:0], s.done[:0]
	return s.visit(env, start)
}

// visit is WaitCycle's DFS through j.
//
//pcpda:alloc-free
func (s *CycleScratch) visit(env Env, j *Job) []rt.JobID {
	push(&s.path, j.ID)
	if j.Status == Blocked {
		for _, id := range j.Blockers {
			b := env.Job(id)
			if b == nil || b.Status != Blocked || slices.Contains(s.done, id) {
				continue
			}
			if i := slices.Index(s.path, id); i >= 0 {
				return s.path[i:]
			}
			if cycle := s.visit(env, b); cycle != nil {
				return cycle
			}
		}
	}
	s.path = s.path[:len(s.path)-1]
	push(&s.done, j.ID)
	return nil
}

// push appends id to *ids: the one place the search grows its scratch.
func push(ids *[]rt.JobID, id rt.JobID) { *ids = append(*ids, id) }

// CheckState audits the state both engines keep alike and returns one line
// per violation, nil when there is none:
//
//   - every lock is held by a job ActiveJobs lists, on an item the holder
//     declared (a read lock in its read or write set, a write lock in its
//     write set), and every read lock is recorded in the holder's DataRead;
//   - ActiveJobs is in ascending id order and lists only Ready or Blocked
//     jobs;
//   - no job blocks itself;
//   - every job runs at the highest base priority among itself and every job
//     with a waits-for path to it: what Inherit computes, checked against
//     the definition.
//
// It is the kernel's Paranoid check and the first half of the manager's
// CheckInvariants; each engine adds the checks that hold for it alone.
func CheckState(env Env) []string {
	var probs []string
	badf := func(format string, args ...any) {
		probs = append(probs, fmt.Sprintf(format, args...))
	}
	active := env.ActiveJobs()
	byID := make(map[rt.JobID]*Job, len(active))
	for i, j := range active {
		byID[j.ID] = j
		if i > 0 && active[i-1].ID >= j.ID {
			badf("active jobs out of order at %d: job %d after job %d", i, j.ID, active[i-1].ID)
		}
		if j.Status != Ready && j.Status != Blocked {
			badf("active job %d has terminal status %v", j.ID, j.Status)
		}
		if slices.Contains(j.Blockers, j.ID) {
			badf("job %d blocks itself", j.ID)
		}
	}
	env.Locks().EachReadLock(func(x rt.Item, o rt.JobID) {
		switch j := byID[o]; {
		case j == nil:
			badf("read lock on item %d held by job %d, which is not active", x, o)
		case !j.Tmpl.ReadSet().Has(x) && !j.Tmpl.WriteSet().Has(x):
			badf("job %d read-locks undeclared item %d", o, x)
		case !j.DataRead.Has(x):
			badf("job %d read-locks item %d without recording the read", o, x)
		}
	})
	env.Locks().EachWriteLock(func(x rt.Item, o rt.JobID) {
		switch j := byID[o]; {
		case j == nil:
			badf("write lock on item %d held by job %d, which is not active", x, o)
		case !j.Tmpl.WriteSet().Has(x):
			badf("job %d write-locks undeclared item %d", o, x)
		}
	})
	want := inheritance(env, active)
	for _, j := range active {
		if j.RunPri != want[j.ID] {
			badf("job %d runs at %v, inheritance says %v", j.ID, j.RunPri, want[j.ID])
		}
	}
	return probs
}

// inheritance is the reference CheckState holds running priorities to,
// written from the definition rather than by iteration: a job runs at the
// highest base priority among itself and every job with a waits-for path to
// it. Each active job's base priority is carried along every path from it; an
// edge runs from a Blocked job to each of its Blockers that env.Job resolves
// and that is Ready or Blocked.
func inheritance(env Env, active []*Job) map[rt.JobID]rt.Priority {
	want := make(map[rt.JobID]rt.Priority, len(active))
	for _, w := range active {
		reached := map[rt.JobID]bool{}
		var reach func(j *Job)
		reach = func(j *Job) {
			if reached[j.ID] {
				return
			}
			reached[j.ID] = true
			if p, ok := want[j.ID]; !ok || p < w.BasePri() {
				want[j.ID] = w.BasePri()
			}
			if j.Status != Blocked {
				return
			}
			for _, id := range j.Blockers {
				if b := env.Job(id); b != nil && (b.Status == Ready || b.Status == Blocked) {
					reach(b)
				}
			}
		}
		reach(w)
	}
	return want
}
