package sim

import (
	"strings"
	"testing"

	"pcpda/internal/cc"
	"pcpda/internal/papercases"
	"pcpda/internal/rt"
	"pcpda/internal/sched"
	"pcpda/internal/txn"
)

// TestVerifyPaperCases runs every protocol over the paper's examples and the
// LC4 deadlock set; each run must keep every promise of its protocol.
func TestVerifyPaperCases(t *testing.T) {
	for _, build := range []func() *txn.Set{
		papercases.Example1, papercases.Example3, papercases.Example4, papercases.Example5, papercases.LC4Deadlock,
	} {
		set := build()
		for _, name := range Protocols() {
			for _, v := range Verify(name, paranoidRun(t, set, name, 20)) {
				t.Errorf("%s/%s: %s", set.Name, name, v)
			}
		}
	}
}

// TestVerifyCatches feeds Verify runs that break one promise each and
// expects the line that names it.
func TestVerifyCatches(t *testing.T) {
	clean := func(set *txn.Set, protocol string) func() *sched.Result {
		return func() *sched.Result {
			res, err := Run(set, protocol, Options{StopOnDeadlock: true})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
	}
	ex4 := clean(papercases.Example4(), "pcpda")
	cases := []struct {
		name     string
		protocol string
		res      func() *sched.Result
		want     string
	}{
		{"naive-DA's deadlock judged as PCP-DA", "pcpda", clean(papercases.Example5(), "naiveda"), "deadlock at t="},
		{"a restart", "pcpda", func() *sched.Result { r := ex4(); r.Restarts = 1; return r }, "1 restarts"},
		{"a Table-1 refusal on LC3", "pcpda", func() *sched.Result {
			r := ex4()
			r.Decisions = append(r.Decisions, cc.RuleCount{Rule: "table1-on-LC3"})
			return r
		}, "table1-on-LC3 refused a read"},
		{"two lower-priority blockers", "rwpcp", func() *sched.Result {
			r := ex4() // job 0 is T4, the lowest priority; job 1 is T3
			t1 := jobOf(r, "T1")
			t1.EverBlockedBy = []rt.JobID{0, 1}
			return r
		}, "blocked by 2 lower-priority jobs"},
		{"a blocker outside the BTS", "pcpda", func() *sched.Result {
			r := ex4() // T1's BTS is empty: no lower template reads an item written at P1
			jobOf(r, "T1").EverBlockedBy = []rt.JobID{1}
			return r
		}, "blocked by T3, outside its BTS"},
		{"blocking above B_i", "pcpda", func() *sched.Result { r := ex4(); jobOf(r, "T1").InvBlockTicks = 99; return r }, "above B_i"},
		{"a write the store lost", "pcpda", func() *sched.Result {
			r := ex4()
			x, _ := r.Set.Catalog.Lookup("x")
			r.Store.Install(99, x, 0)
			return r
		}, "final value of x written by run 99"},
		{"the same restart under a protocol that restarts", "2plhp", func() *sched.Result { r := clean(papercases.Example4(), "2plhp")(); r.Restarts = 1; return r }, ""},
	}
	for _, c := range cases {
		got := strings.Join(Verify(c.protocol, c.res()), "\n")
		if c.want == "" && got != "" || !strings.Contains(got, c.want) {
			t.Errorf("%s: Verify says %q, want a line with %q", c.name, got, c.want)
		}
	}
}

func jobOf(res *sched.Result, name string) *cc.Job {
	for _, j := range res.Jobs {
		if j.Tmpl.Name == name {
			return j
		}
	}
	return nil
}
