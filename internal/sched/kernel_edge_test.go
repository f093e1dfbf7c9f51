package sched

import (
	"slices"
	"testing"

	"pcpda/internal/cc"
	"pcpda/internal/naiveda"
	"pcpda/internal/papercases"
	"pcpda/internal/pcpda"
	"pcpda/internal/pip"
	"pcpda/internal/rt"
	"pcpda/internal/tplhp"
	"pcpda/internal/txn"
)

func TestPeriodicReleasesAndOverrun(t *testing.T) {
	// A transaction whose body is longer than another's period forces
	// overlapping instances of the short one when it is LOW priority; here
	// the short one is high priority so it preempts and never overruns,
	// but the long one keeps executing across several of its releases.
	s := txn.NewSet("periodic")
	x := s.Catalog.Intern("x")
	s.Add(&txn.Template{Name: "fast", Period: 4, Steps: []txn.Step{txn.Read(x)}})
	s.Add(&txn.Template{Name: "slow", Period: 20, Steps: []txn.Step{txn.Comp(10)}})
	s.AssignRateMonotonic()
	res := run(t, s, pcpda.New(), 20)
	fastJobs := 0
	for _, j := range res.Jobs {
		if res.Set.Templates[j.Tmpl].Name == "fast" {
			fastJobs++
			if j.Status != cc.Done {
				t.Errorf("fast job released at %d unfinished", j.Release)
			}
		}
	}
	if fastJobs != 5 {
		t.Fatalf("fast released %d times in 20 ticks, want 5", fastJobs)
	}
	if res.Misses != 0 {
		t.Fatalf("misses = %d", res.Misses)
	}
}

func TestOverrunningTemplateSpawnsConcurrentJobs(t *testing.T) {
	// Low-priority short-period transaction starved by a high-priority
	// hog: multiple live instances of the same template coexist and are
	// eventually all executed.
	s := txn.NewSet("overrun")
	x := s.Catalog.Intern("x")
	s.Add(&txn.Template{Name: "hog", Period: 40, Steps: []txn.Step{txn.Comp(12)}})
	s.Add(&txn.Template{Name: "starved", Period: 5, Steps: []txn.Step{txn.Read(x)}})
	s.AssignByIndex() // hog gets the higher priority (deliberately non-RM)
	res := run(t, s, pcpda.New(), 40)
	var misses int
	for _, j := range res.Jobs {
		if res.Set.Templates[j.Tmpl].Name == "starved" && j.Missed() {
			misses++
		}
	}
	if misses < 2 {
		t.Fatalf("expected the starved transaction to miss repeatedly, got %d", misses)
	}
	// All starved jobs eventually complete (hard policy keeps them alive).
	for _, j := range res.Jobs {
		if res.Set.Templates[j.Tmpl].Name == "starved" && j.Release+20 < 40 && j.Status != cc.Done {
			t.Errorf("starved job released at %d never completed", j.Release)
		}
	}
}

func TestStopOnDeadlockFalseIdlesThrough(t *testing.T) {
	k, err := New(papercases.Example5(), naiveda.New(), Config{
		Horizon:        12,
		StopOnDeadlock: false,
		RecordTrace:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := k.Run()
	if !res.Deadlocked {
		t.Fatal("deadlock must still be detected")
	}
	// The run continues to the horizon with both jobs stuck.
	if res.Committed != 0 {
		t.Fatalf("committed = %d, want 0", res.Committed)
	}
	if res.IdleTicks == 0 {
		t.Fatal("deadlocked tail must idle")
	}
}

func TestEnvInterface(t *testing.T) {
	s := papercases.Example1()
	k, err := New(s, pcpda.New(), Config{Horizon: 6})
	if err != nil {
		t.Fatal(err)
	}
	if k.now != 0 {
		t.Fatal("time starts at 0")
	}
	if k.Locks() == nil {
		t.Fatal("lock table must exist")
	}
	if k.Job(0) != nil {
		t.Fatal("no jobs before release")
	}
	if k.Job(-1) != nil || k.Job(99) != nil {
		t.Fatal("out-of-range job ids resolve to nil")
	}
	res := k.Run()
	if len(k.ActiveJobs()) != 0 {
		t.Fatal("all jobs done at horizon")
	}
	if res.Committed != 3 {
		t.Fatalf("committed = %d", res.Committed)
	}
	// cc.Env's contract: a job that has left resolves to nil, though the
	// result still holds it.
	for id, j := range res.Jobs {
		if j.Status != cc.Done {
			t.Fatalf("job %d is %v at the horizon", id, j.Status)
		}
		if k.Job(rt.JobID(id)) != nil {
			t.Errorf("committed job %d still resolves", id)
		}
	}
}

func TestPIPInheritanceBoundsInversion(t *testing.T) {
	// The classic inversion scenario: without inheritance M would starve L
	// while H waits; with inheritance L runs at H's priority and finishes.
	s := txn.NewSet("inv")
	x := s.Catalog.Intern("x")
	s.Add(&txn.Template{Name: "H", Offset: 1, Steps: []txn.Step{txn.Write(x)}})
	s.Add(&txn.Template{Name: "M", Offset: 2, Steps: []txn.Step{txn.Comp(10)}})
	s.Add(&txn.Template{Name: "L", Offset: 0, Steps: []txn.Step{txn.Read(x), txn.Comp(3)}})
	s.AssignByIndex()
	res := run(t, s, pip.New(), 20)
	var h JobRecord
	for _, j := range res.Jobs {
		if res.Set.Templates[j.Tmpl].Name == "H" {
			h = j
		}
	}
	// H waits only for L's remaining 3 ticks, never for M's 10.
	if h.BlockedTicks != 3 {
		t.Fatalf("H blocked %d ticks, want 3 (inheritance)", h.BlockedTicks)
	}
	if h.FinishTick != 5 {
		t.Fatalf("H finished at %d, want 5", h.FinishTick)
	}
}

func TestBlockedTicksVsInversionTicks(t *testing.T) {
	// H blocked by L while an even higher transaction X preempts L: those
	// ticks count as blocked but NOT as inversion.
	s := txn.NewSet("inv2")
	x := s.Catalog.Intern("x")
	s.Add(&txn.Template{Name: "X", Offset: 3, Steps: []txn.Step{txn.Comp(2)}})
	s.Add(&txn.Template{Name: "H", Offset: 2, Steps: []txn.Step{txn.Write(x)}})
	s.Add(&txn.Template{Name: "L", Offset: 0, Steps: []txn.Step{txn.Read(x), txn.Comp(3)}})
	s.AssignByIndex()
	res := run(t, s, pcpda.New(), 20)
	var h JobRecord
	for _, j := range res.Jobs {
		if res.Set.Templates[j.Tmpl].Name == "H" {
			h = j
		}
	}
	// Timeline: L runs 0-1; H arrives at 2, blocks; L inherits, runs t=2;
	// X arrives at 3, preempts (ticks 3,4); L finishes t=5; H runs t=6.
	if h.BlockedTicks != 4 {
		t.Fatalf("H blocked %d, want 4", h.BlockedTicks)
	}
	if h.InvBlockTicks != 2 {
		t.Fatalf("H inversion %d, want 2 (X's ticks excluded)", h.InvBlockTicks)
	}
}

// hpOverPIP decides R's requests by 2PL-HP (a higher-priority requester
// restarts lower-priority holders) and everyone else's by PIP (a conflicting
// request waits and its holders inherit). Under 2PL-HP alone a job only waits
// for holders of at least its own base priority, so no restart victim is ever
// donating; the mix makes one.
type hpOverPIP struct{ *pip.Protocol }

func (p hpOverPIP) Request(env cc.Env, j *cc.Job, x rt.Item, m rt.Mode) cc.Decision {
	if j.Tmpl.Name == "R" {
		return tplhp.New().Request(env, j, x, m)
	}
	return p.Protocol.Request(env, j, x, m)
}

// TestRestartedVictimStopsDonating: V, blocked on L's read lock, lifts L to
// V's priority; R's write restarts V, which leaves the Blocked set, so L is
// back at its base priority before the next candidate is chosen — the kernel
// recomputes inheritance at the restart, not at the next dispatch. Paranoid
// checks the fixpoint at the end of R's tick, before the next choice.
func TestRestartedVictimStopsDonating(t *testing.T) {
	s := txn.NewSet("restart-donor")
	x, y, z := s.Catalog.Intern("x"), s.Catalog.Intern("y"), s.Catalog.Intern("z")
	s.Add(&txn.Template{Name: "R", Offset: 3, Steps: []txn.Step{txn.Write(y), txn.Read(z)}})
	s.Add(&txn.Template{Name: "V", Offset: 1, Steps: []txn.Step{txn.Read(y), txn.Write(x)}})
	s.Add(&txn.Template{Name: "L", Steps: []txn.Step{txn.Read(x), txn.Comp(6)}})
	s.AssignByIndex()
	k, err := New(s, hpOverPIP{pip.New()}, Config{Horizon: 4, Paranoid: true, StopOnDeadlock: true})
	if err != nil {
		t.Fatal(err)
	}
	res := k.Run()
	if res.Invariant != nil {
		t.Fatal(res.Invariant)
	}
	l, v := res.Jobs[0], res.Jobs[1]
	if res.Restarts != 1 || v.Restarts != 1 || !slices.Equal(res.EverBlockedBy(v), []rt.JobID{0}) {
		t.Fatalf("restarts %d, V restarts %d, V ever blocked by %v: the scenario did not happen", res.Restarts, v.Restarts, res.EverBlockedBy(v))
	}
	if base := res.Set.Templates[l.Tmpl].Priority; l.RunPri != base {
		t.Fatalf("L runs at %d after its only donor restarted, want its base %d", l.RunPri, base)
	}
}

// relabelRetry decides by PIP but names H's first denial "ceiling" and every
// later one, each a retry by a job already blocked, "table1-on-LC2": the shape
// of a job that first waits behind the system ceiling and, once the ceiling
// drops, is refused by Table 1 on the LC2 path.
type relabelRetry struct {
	*pip.Protocol
	denials int
}

func (p *relabelRetry) Request(env cc.Env, j *cc.Job, x rt.Item, m rt.Mode) cc.Decision {
	dec := p.Protocol.Request(env, j, x, m)
	if !dec.Granted && j.Tmpl.Name == "H" {
		dec.Rule = "table1-on-LC2"
		if p.denials == 0 {
			dec.Rule = "ceiling"
		}
		p.denials++
	}
	return dec
}

// TestRetryDenialOpensItsRule: a rule that only ever denies a job already
// blocked adds no Blocks but still has its line in Result.Decisions, so a
// check for a table1-on-* line sees a Table-1 refusal met on a retry.
func TestRetryDenialOpensItsRule(t *testing.T) {
	s := txn.NewSet("retry-rule")
	x := s.Catalog.Intern("x")
	s.Add(&txn.Template{Name: "H", Offset: 1, Steps: []txn.Step{txn.Read(x)}})
	s.Add(&txn.Template{Name: "L", Steps: []txn.Step{txn.Write(x), txn.Comp(3)}})
	s.AssignByIndex()
	proto := &relabelRetry{Protocol: pip.New()}
	res := run(t, s, proto, 10)
	if proto.denials < 2 {
		t.Fatalf("H was denied %d times, want a fresh denial and at least one retry", proto.denials)
	}
	if got := res.Decisions.Of("ceiling"); got.Blocks != 1 {
		t.Errorf("ceiling line %+v, want one fresh denial", got)
	}
	i := slices.IndexFunc(res.Decisions, func(r cc.RuleCount) bool { return r.Rule == "table1-on-LC2" })
	if i < 0 {
		t.Fatalf("no table1-on-LC2 line in %v after %d retry denials", res.Decisions, proto.denials-1)
	}
	if got := res.Decisions[i]; got.Blocks != 0 || got.Grants != 0 {
		t.Errorf("table1-on-LC2 line %+v, want no counts: every such denial was a retry", got)
	}
}

func TestRunPriorityResetAfterCommit(t *testing.T) {
	// After the blocker commits, its inheritance must not linger on any
	// later job of the same template.
	s := txn.NewSet("reset")
	x := s.Catalog.Intern("x")
	s.Add(&txn.Template{Name: "H", Offset: 1, Steps: []txn.Step{txn.Write(x)}})
	s.Add(&txn.Template{Name: "L", Period: 10, Steps: []txn.Step{txn.Read(x), txn.Comp(2)}})
	s.AssignByIndex()
	res := run(t, s, pcpda.New(), 20)
	for _, j := range res.Jobs {
		if tmpl := res.Set.Templates[j.Tmpl]; tmpl.Name == "L" && j.Release == 10 {
			if j.RunPri != tmpl.Priority {
				t.Fatalf("second L instance runs at %d, want base %d", j.RunPri, tmpl.Priority)
			}
		}
	}
}

func TestKernelRejectsDeadlockFreeRunTwice(t *testing.T) {
	// Run() twice on one kernel is not supported, but must at least not
	// corrupt the first result: document by asserting the second run does
	// nothing (time already at horizon).
	k, err := New(papercases.Example1(), pcpda.New(), Config{Horizon: 6})
	if err != nil {
		t.Fatal(err)
	}
	first := k.Run()
	second := k.Run()
	if second.Committed != first.Committed {
		t.Fatal("second Run must be a no-op")
	}
}

func TestZeroPriorityJobsRejectedEarly(t *testing.T) {
	s := txn.NewSet("zero")
	x := s.Catalog.Intern("x")
	tmpl := &txn.Template{Name: "T", Steps: []txn.Step{txn.Read(x)}}
	s.Add(tmpl) // priority never assigned
	if _, err := New(s, pcpda.New(), Config{Horizon: 5}); err == nil {
		t.Fatal("unassigned priorities must be rejected")
	}
	_ = rt.Dummy
}

// TestEveryLateJobAbortsAtItsDeadline: three jobs share a deadline they
// cannot all meet, so two of them are late at one tick. The deadline check
// walks the live list while each firm abort takes a job out of it; every late
// job must still be caught at its deadline, not at a later scan.
func TestEveryLateJobAbortsAtItsDeadline(t *testing.T) {
	s := txn.NewSet("late")
	for _, name := range []string{"A", "B", "C"} {
		s.Add(&txn.Template{Name: name, Period: 6, Steps: []txn.Step{txn.Comp(5)}})
	}
	s.AssignByIndex()
	for _, ff := range []bool{false, true} {
		k, err := New(s, pcpda.New(), Config{Horizon: 30, Deadline: FirmAbort, DisableFastForward: !ff})
		if err != nil {
			t.Fatal(err)
		}
		res := k.Run()
		late := map[rt.Ticks]int{}
		for id, j := range res.Jobs {
			if !j.Missed() {
				continue
			}
			late[j.MissedAt]++
			if j.MissedAt != j.AbsDeadline || j.Status != cc.Aborted {
				t.Errorf("fast-forward %v: job %d (%s) %v, missed at %d, deadline %d", ff, id, res.Set.Templates[j.Tmpl].Name, j.Status, j.MissedAt, j.AbsDeadline)
			}
		}
		if late[6] != 2 {
			t.Errorf("fast-forward %v: %d jobs late at tick 6, want 2", ff, late[6])
		}
	}
}
