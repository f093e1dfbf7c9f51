package cc_test

import (
	"slices"
	"strings"
	"testing"

	"pcpda/internal/cc"
	"pcpda/internal/cctest"
	"pcpda/internal/rt"
	"pcpda/internal/testenv"
	"pcpda/internal/txn"
)

// waitEnv builds an environment of jobs 0..n-1 of one template, each Blocked
// on the jobs blockers lists for it; a job with no entry is Ready.
func waitEnv(n int, blockers map[rt.JobID][]rt.JobID) *cctest.Env {
	s := txn.NewSet("waits")
	s.Add(&txn.Template{Name: "T", Steps: []txn.Step{txn.Comp(1)}})
	s.AssignByIndex()
	env := cctest.NewEnv()
	for id := rt.JobID(0); id < rt.JobID(n); id++ {
		j := env.AddJob(id, s.Templates[0])
		if bs, ok := blockers[id]; ok {
			j.Status, j.Blockers = cc.Blocked, bs
		}
	}
	return env
}

func TestWaitCycle(t *testing.T) {
	for _, tc := range []struct {
		name     string
		n        int
		blockers map[rt.JobID][]rt.JobID
		want     []rt.JobID
	}{
		{"two-cycle", 2, map[rt.JobID][]rt.JobID{0: {1}, 1: {0}}, []rt.JobID{0, 1}},
		// Entered mid-path: 0 waits on the cycle 1 → 2 → 3 → 1, which comes
		// back without 0, from the job the search re-entered, in path order.
		{"three-cycle entered mid-path", 4, map[rt.JobID][]rt.JobID{0: {1}, 1: {2}, 2: {3}, 3: {1}}, []rt.JobID{1, 2, 3}},
		// Two paths into 3, whose chain ends at the Ready job 4: no cycle,
		// and 3 is searched once.
		{"chain ending at a Ready job", 5, map[rt.JobID][]rt.JobID{0: {1, 2}, 1: {3}, 2: {3}, 3: {4}}, nil},
		// Job 9 has left: Job resolves it to nil, so it is no edge.
		{"blocker that has left", 2, map[rt.JobID][]rt.JobID{0: {9}, 1: {0}}, nil},
		{"start not blocked", 2, map[rt.JobID][]rt.JobID{1: {0}}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := waitEnv(tc.n, tc.blockers)
			var s cc.CycleScratch
			if got := cc.WaitCycle(env, env.Job(0), &s); !slices.Equal(got, tc.want) {
				t.Fatalf("WaitCycle = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestWaitCycleWarmScratchAllocatesNothing(t *testing.T) {
	if testenv.Race {
		t.Skip("the race runtime allocates")
	}
	env := waitEnv(4, map[rt.JobID][]rt.JobID{0: {1}, 1: {2}, 2: {3}, 3: {1}})
	var s cc.CycleScratch
	start := env.Job(0)
	cc.WaitCycle(env, start, &s)
	if allocs := testing.AllocsPerRun(100, func() { cc.WaitCycle(env, start, &s) }); allocs != 0 {
		t.Fatalf("a search on a warm scratch allocates %v, want 0", allocs)
	}
}

// audit is a sound state: TH has read x and wants to write y, which TL has
// read, so TH is blocked on TL and TL runs at TH's priority. z is declared
// by nobody.
type audit struct {
	env     *cctest.Env
	th, tl  *cc.Job
	x, y, z rt.Item
}

func newAudit() *audit {
	s := txn.NewSet("audit")
	a := &audit{env: cctest.NewEnv()}
	a.x, a.y, a.z = s.Catalog.Intern("x"), s.Catalog.Intern("y"), s.Catalog.Intern("z")
	s.Add(&txn.Template{Name: "TH", Steps: []txn.Step{txn.Read(a.x), txn.Write(a.y)}})
	s.Add(&txn.Template{Name: "TL", Steps: []txn.Step{txn.Read(a.y), txn.Write(a.x)}})
	s.AssignByIndex()
	a.th, a.tl = a.env.AddJob(1, s.Templates[0]), a.env.AddJob(2, s.Templates[1])
	a.env.ReadLock(a.th.ID, a.x)
	a.env.ReadLock(a.tl.ID, a.y)
	a.th.Status, a.th.Blockers = cc.Blocked, []rt.JobID{a.tl.ID}
	a.tl.RunPri = a.th.RunPri
	return a
}

// reversed lists the active jobs in descending id order.
type reversed struct{ *cctest.Env }

func (r reversed) ActiveJobs() []*cc.Job {
	out := r.Env.ActiveJobs()
	slices.Reverse(out)
	return out
}

// TestCheckStateDetectsCorruption holds each clause of the shared audit to a
// hand-made violation of it, on an otherwise sound state.
func TestCheckStateDetectsCorruption(t *testing.T) {
	if probs := cc.CheckState(newAudit().env); probs != nil {
		t.Fatalf("sound state flagged: %v", probs)
	}
	for _, tc := range []struct {
		clause  string
		corrupt func(a *audit) cc.Env
		want    string
	}{
		{"lock held by a job not active", func(a *audit) cc.Env {
			a.env.WriteLock(7, a.y)
			return a.env
		}, "job 7, which is not active"},
		{"read lock on an undeclared item", func(a *audit) cc.Env {
			a.env.ReadLock(a.th.ID, a.z)
			return a.env
		}, "read-locks undeclared item"},
		{"write lock outside the write set", func(a *audit) cc.Env {
			a.env.WriteLock(a.th.ID, a.x)
			return a.env
		}, "write-locks undeclared item"},
		{"read lock not recorded in DataRead", func(a *audit) cc.Env {
			a.env.Table.Acquire(a.tl.ID, a.x, rt.Read)
			return a.env
		}, "without recording the read"},
		{"active jobs out of id order", func(a *audit) cc.Env {
			return reversed{a.env}
		}, "out of order"},
		{"active job with a terminal status", func(a *audit) cc.Env {
			a.th.Status = cc.Aborted
			return a.env
		}, "terminal status"},
		{"job blocks itself", func(a *audit) cc.Env {
			a.th.Blockers = append(a.th.Blockers, a.th.ID)
			return a.env
		}, "blocks itself"},
		{"blocker not raised to its waiter", func(a *audit) cc.Env {
			a.tl.RunPri = a.tl.BasePri()
			return a.env
		}, "job 2 runs at"},
		{"raised with no waiter", func(a *audit) cc.Env {
			a.th.Status, a.th.Blockers = cc.Ready, nil
			return a.env
		}, "job 2 runs at"},
		{"raised around a cycle past every base on it", func(a *audit) cc.Env {
			a.tl.Status, a.tl.Blockers = cc.Blocked, []rt.JobID{a.th.ID}
			a.th.RunPri, a.tl.RunPri = a.th.BasePri()+1, a.th.BasePri()+1
			return a.env
		}, "job 1 runs at"},
		{"below the base priority", func(a *audit) cc.Env {
			a.th.RunPri = a.th.BasePri() - 1
			return a.env
		}, "job 1 runs at"},
	} {
		t.Run(tc.clause, func(t *testing.T) {
			probs := cc.CheckState(tc.corrupt(newAudit()))
			if got := strings.Join(probs, "; "); !strings.Contains(got, tc.want) {
				t.Fatalf("audit said %q, want a line containing %q", got, tc.want)
			}
		})
	}
}
