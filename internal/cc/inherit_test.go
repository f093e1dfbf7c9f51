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

// inheritEnv builds jobs 0..len(pris)-1, job i at base priority pris[i]: each
// in blocked is Blocked on its list, each in stale is Ready with a leftover
// list, each in done is Done, the rest Ready. Every running priority starts
// out inflated, so a test also sees Inherit begin again from the bases.
func inheritEnv(pris []rt.Priority, blocked, stale map[rt.JobID][]rt.JobID, done []rt.JobID) *cctest.Env {
	env := cctest.NewEnv()
	for i, p := range pris {
		id := rt.JobID(i)
		j := env.AddJob(id, &txn.Template{Name: "T", Priority: p, Steps: []txn.Step{txn.Comp(1)}})
		j.RunPri = 99
		if bs, ok := blocked[id]; ok {
			j.Status, j.Blockers = cc.Blocked, bs
		}
		if bs, ok := stale[id]; ok {
			j.Blockers = bs
		}
		if slices.Contains(done, id) {
			j.Status = cc.Done
		}
	}
	return env
}

func TestInherit(t *testing.T) {
	for _, tc := range []struct {
		name           string
		pris           []rt.Priority
		blocked, stale map[rt.JobID][]rt.JobID
		done           []rt.JobID
		want           []rt.Priority
	}{
		// 2 → 1 → 0: the top priority reaches the end of the chain.
		{name: "chain", pris: []rt.Priority{1, 2, 3},
			blocked: map[rt.JobID][]rt.JobID{2: {1}, 1: {0}},
			want:    []rt.Priority{3, 3, 3}},
		// 3 waits on 1 and 2, both wait on 0: 0 gets the higher of the two
		// paths, 2 keeps its own base above what 3 donates.
		{name: "diamond", pris: []rt.Priority{1, 2, 5, 4},
			blocked: map[rt.JobID][]rt.JobID{3: {1, 2}, 1: {0}, 2: {0}},
			want:    []rt.Priority{5, 4, 5, 4}},
		// 0 and 1 wait on each other: both run at the higher base on the
		// cycle and no more (the least fixpoint), and the Ready job 2 gives
		// them nothing.
		{name: "two-cycle", pris: []rt.Priority{1, 2, 3},
			blocked: map[rt.JobID][]rt.JobID{0: {1}, 1: {0}},
			want:    []rt.Priority{2, 2, 3}},
		{name: "blocker no longer resolves", pris: []rt.Priority{1, 2},
			blocked: map[rt.JobID][]rt.JobID{1: {9}},
			want:    []rt.Priority{1, 2}},
		{name: "done blocker", pris: []rt.Priority{1, 2},
			blocked: map[rt.JobID][]rt.JobID{1: {0}}, done: []rt.JobID{0},
			want: []rt.Priority{1, 2}},
		{name: "ready job with stale blockers", pris: []rt.Priority{1, 2},
			stale: map[rt.JobID][]rt.JobID{1: {0}},
			want:  []rt.Priority{1, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := inheritEnv(tc.pris, tc.blocked, tc.stale, tc.done)
			cc.Inherit(env)
			got := make([]rt.Priority, len(tc.pris))
			for i := range got {
				got[i] = env.Job(rt.JobID(i)).RunPri
			}
			if !slices.Equal(got, tc.want) {
				t.Fatalf("running priorities %v, want %v", got, tc.want)
			}
			// The audit's reference, written from the definition, agrees.
			for _, p := range cc.CheckState(env) {
				if strings.Contains(p, "runs at") {
					t.Errorf("CheckState disagrees: %s", p)
				}
			}
		})
	}
}

// frozen answers ActiveJobs from a list taken once, as both engines do.
type frozen struct {
	*cctest.Env
	active []*cc.Job
}

func (f frozen) ActiveJobs() []*cc.Job { return f.active }

func TestInheritAllocatesNothing(t *testing.T) {
	if testenv.Race {
		t.Skip("the race runtime allocates")
	}
	e := inheritEnv([]rt.Priority{1, 2, 5, 4}, map[rt.JobID][]rt.JobID{3: {1, 2}, 1: {0}, 2: {0}}, nil, nil)
	var env cc.Env = frozen{e, e.ActiveJobs()}
	if allocs := testing.AllocsPerRun(100, func() { cc.Inherit(env) }); allocs != 0 {
		t.Fatalf("Inherit allocates %v, want 0", allocs)
	}
}
