package sched

import (
	"strings"
	"testing"

	"pcpda/internal/cc"
	"pcpda/internal/papercases"
	"pcpda/internal/pcpda"
	"pcpda/internal/rt"
	"pcpda/internal/rwpcp"
	"pcpda/internal/trace"
	"pcpda/internal/txn"
)

func run(t *testing.T, set *txn.Set, proto cc.Protocol, horizon rt.Ticks) *Result {
	t.Helper()
	k, err := New(set, proto, Config{Horizon: horizon, RecordTrace: true, TrackCeiling: true})
	if err != nil {
		t.Fatalf("kernel: %v", err)
	}
	return k.Run()
}

func wantRow(t *testing.T, res *Result, name, want string) {
	t.Helper()
	tmpl := res.Set.ByName(name)
	if tmpl == nil {
		t.Fatalf("no template %s", name)
	}
	if got := res.Timeline.RowString(tmpl.ID); got != want {
		t.Errorf("%s/%s row:\n got %q\nwant %q\nfull timeline:\n%s",
			res.Protocol, name, got, want, res.Timeline.Render(res.Set))
	}
}

func jobOf(t *testing.T, res *Result, name string, idx int) *JobRecord {
	t.Helper()
	n := 0
	for i, j := range res.Jobs {
		if res.Set.Templates[j.Tmpl].Name == name {
			if n == idx {
				return &res.Jobs[i]
			}
			n++
		}
	}
	t.Fatalf("no job %d of %s", idx, name)
	return nil
}

func checkSerializable(t *testing.T, res *Result, wantCommitOrder bool) {
	t.Helper()
	rep := res.History.Check()
	if !rep.Serializable {
		t.Errorf("%s history not serializable: %v\n%s", res.Protocol, rep.Violations, res.History)
	}
	if wantCommitOrder && !rep.CommitOrderOK {
		t.Errorf("%s violates commit-order serialization: %v", res.Protocol, rep.Violations)
	}
}

// --- Figure 1: Example 1 under RW-PCP ---------------------------------------

func TestFigure1Example1RWPCP(t *testing.T) {
	res := run(t, papercases.Example1(), rwpcp.New(), papercases.Example1Horizon)
	wantRow(t, res, "T1", papercases.Fig1RowT1)
	wantRow(t, res, "T2", papercases.Fig1RowT2)
	wantRow(t, res, "T3", papercases.Fig1RowT3)
	if res.Committed != 3 || res.Misses != 0 || res.Deadlocked {
		t.Errorf("outcome: %+v", res)
	}
	// T2's ceiling blocking: 3 ticks blocked even though y was free.
	if j := jobOf(t, res, "T2", 0); j.BlockedTicks != 3 {
		t.Errorf("T2 blocked %d ticks, want 3", j.BlockedTicks)
	}
	// T1's conflict blocking: 1 tick.
	if j := jobOf(t, res, "T1", 0); j.BlockedTicks != 1 {
		t.Errorf("T1 blocked %d ticks, want 1", j.BlockedTicks)
	}
	checkSerializable(t, res, false)
}

func TestExample1PCPDAHasNoBlocking(t *testing.T) {
	res := run(t, papercases.Example1(), pcpda.New(), papercases.Example1Horizon)
	wantRow(t, res, "T1", papercases.Ex1PCPDARowT1)
	wantRow(t, res, "T2", papercases.Ex1PCPDARowT2)
	wantRow(t, res, "T3", papercases.Ex1PCPDARowT3)
	for _, name := range []string{"T1", "T2"} {
		if j := jobOf(t, res, name, 0); j.BlockedTicks != 0 {
			t.Errorf("%s blocked %d ticks under PCP-DA, want 0", name, j.BlockedTicks)
		}
	}
	checkSerializable(t, res, true)
}

// --- Figures 2 and 3: Example 3 ---------------------------------------------

func TestFigure2Example3PCPDA(t *testing.T) {
	res := run(t, papercases.Example3(), pcpda.New(), papercases.Example3Horizon)
	wantRow(t, res, "T1", papercases.Fig2RowT1)
	wantRow(t, res, "T2", papercases.Fig2RowT2)
	if res.Misses != 0 {
		t.Errorf("PCP-DA must meet all deadlines in Example 3, missed %d", res.Misses)
	}
	// Both T1 instances run blocking-free.
	for idx := 0; idx < 2; idx++ {
		if j := jobOf(t, res, "T1", idx); j.BlockedTicks != 0 {
			t.Errorf("T1 instance %d blocked %d ticks", idx, j.BlockedTicks)
		}
	}
	checkSerializable(t, res, true)
}

func TestFigure3Example3RWPCP(t *testing.T) {
	res := run(t, papercases.Example3(), rwpcp.New(), papercases.Example3Horizon)
	wantRow(t, res, "T1", papercases.Fig3RowT1)
	wantRow(t, res, "T2", papercases.Fig3RowT2)
	// The paper: "The first instance of T1 is blocked by T2 from time 1 to 5
	// and T1 misses its deadline at time 6."
	j := jobOf(t, res, "T1", 0)
	if j.BlockedTicks != 4 {
		t.Errorf("first T1 blocked %d ticks, want 4", j.BlockedTicks)
	}
	if !j.Missed() || j.MissedAt != 6 {
		t.Errorf("first T1 miss at %d, want 6", j.MissedAt)
	}
	if res.Misses != 1 {
		t.Errorf("misses = %d, want 1", res.Misses)
	}
	checkSerializable(t, res, false)
}

// --- Figures 4 and 5: Example 4 ---------------------------------------------

func TestFigure4Example4PCPDA(t *testing.T) {
	res := run(t, papercases.Example4(), pcpda.New(), papercases.Example4Horizon)
	wantRow(t, res, "T1", papercases.Fig4RowT1)
	wantRow(t, res, "T2", papercases.Fig4RowT2)
	wantRow(t, res, "T3", papercases.Fig4RowT3)
	wantRow(t, res, "T4", papercases.Fig4RowT4)
	// LC4 must have fired exactly once (T3's read of z at t=1) and LC1 for
	// every write lock.
	if n := res.Decisions.Of("LC4").Grants; n != 1 {
		t.Errorf("LC4 grants = %d, want 1 (tally: %v)", n, res.Decisions)
	}
	// No transaction blocks at all in Figure 4.
	for _, j := range res.Jobs {
		if j.BlockedTicks != 0 {
			t.Errorf("%s blocked %d ticks under PCP-DA", res.Set.Templates[j.Tmpl].Name, j.BlockedTicks)
		}
	}
	// Max_Sysceil stays at P2 (priority 3 of 4) and clears after t=9.
	set := res.Set
	p2 := set.ByName("T2").Priority
	if res.MaxSysceil != p2 {
		t.Errorf("Max_Sysceil = %v, want P2 (%v)", res.MaxSysceil, p2)
	}
	if c := res.Timeline.Ceiling(9); !c.IsDummy() {
		t.Errorf("ceiling at t=9 = %v, want dummy (all read locks gone)", c)
	}
	checkSerializable(t, res, true)
}

func TestFigure5Example4RWPCP(t *testing.T) {
	res := run(t, papercases.Example4(), rwpcp.New(), papercases.Example4Horizon)
	wantRow(t, res, "T1", papercases.Fig5RowT1)
	wantRow(t, res, "T2", papercases.Fig5RowT2)
	wantRow(t, res, "T3", papercases.Fig5RowT3)
	wantRow(t, res, "T4", papercases.Fig5RowT4)
	// Effective blocking (priority-inversion ticks): T1 1 tick, T3 4 ticks.
	if j := jobOf(t, res, "T1", 0); j.InvBlockTicks != 1 {
		t.Errorf("T1 effective blocking = %d, want 1", j.InvBlockTicks)
	}
	if j := jobOf(t, res, "T3", 0); j.InvBlockTicks != 4 {
		t.Errorf("T3 effective blocking = %d, want 4", j.InvBlockTicks)
	}
	// Max_Sysceil reaches P1 under RW-PCP (write lock on x raises Aceil(x)).
	p1 := res.Set.ByName("T1").Priority
	if res.MaxSysceil != p1 {
		t.Errorf("Max_Sysceil = %v, want P1 (%v)", res.MaxSysceil, p1)
	}
	checkSerializable(t, res, false)
}

// --- PCP-DA always beats (or ties) RW-PCP on the paper's cases --------------

func TestPCPDABlockingNeverExceedsRWPCPOnPaperCases(t *testing.T) {
	cases := []struct {
		name    string
		set     func() *txn.Set
		horizon rt.Ticks
	}{
		{"example1", papercases.Example1, papercases.Example1Horizon},
		{"example3", papercases.Example3, papercases.Example3Horizon},
		{"example4", papercases.Example4, papercases.Example4Horizon},
		{"example5", papercases.Example5, papercases.Example5Horizon},
	}
	for _, c := range cases {
		da := run(t, c.set(), pcpda.New(), c.horizon)
		rw := run(t, c.set(), rwpcp.New(), c.horizon)
		var daBlocked, rwBlocked rt.Ticks
		for _, j := range da.Jobs {
			daBlocked += j.BlockedTicks
		}
		for _, j := range rw.Jobs {
			rwBlocked += j.BlockedTicks
		}
		if daBlocked > rwBlocked {
			t.Errorf("%s: PCP-DA total blocking %d > RW-PCP %d", c.name, daBlocked, rwBlocked)
		}
		if da.Misses > rw.Misses {
			t.Errorf("%s: PCP-DA misses %d > RW-PCP %d", c.name, da.Misses, rw.Misses)
		}
	}
}

// --- kernel mechanics --------------------------------------------------------

// --- The LC4 deadlock set under PCP-DA --------------------------------------

// L inherits P_H when H's write of y meets L's read lock, and its read of x
// is granted although H's read lock holds Sysceil_L at P_H: H waits on L.
func TestLC4DeadlockPCPDA(t *testing.T) {
	res := run(t, papercases.LC4Deadlock(), pcpda.New(), papercases.LC4DeadlockHorizon)
	wantRow(t, res, "H", papercases.LC4PCPDARowH)
	wantRow(t, res, "L", papercases.LC4PCPDARowL)
	if res.Deadlocked || res.Committed != 2 {
		t.Errorf("deadlocked=%v committed=%d, want both committed", res.Deadlocked, res.Committed)
	}
	checkSerializable(t, res, true)
}

func TestKernelRejectsBadInput(t *testing.T) {
	set := papercases.Example1()
	if _, err := New(set, pcpda.New(), Config{Horizon: 0}); err == nil {
		t.Error("zero horizon accepted")
	}
	bad := txn.NewSet("bad")
	if _, err := New(bad, pcpda.New(), Config{Horizon: 10}); err == nil {
		t.Error("empty set accepted")
	}
}

func TestPriorityInheritanceChain(t *testing.T) {
	// T3 (lowest) read-locks x; T1 (highest) is blocked on writing x.
	// T2 (middle) must NOT preempt T3 while T3 inherits T1's priority.
	s := txn.NewSet("chain")
	x := s.Catalog.Intern("x")
	s.Add(&txn.Template{Name: "T1", Offset: 2, Steps: []txn.Step{txn.Write(x)}})
	s.Add(&txn.Template{Name: "T2", Offset: 3, Steps: []txn.Step{txn.Comp(2)}})
	s.Add(&txn.Template{Name: "T3", Offset: 0, Steps: []txn.Step{txn.Read(x), txn.Comp(4)}})
	s.AssignByIndex()
	res := run(t, s, pcpda.New(), 12)
	// T3 runs 0..4 uninterrupted by T2 (it inherits T1's priority from t=2),
	// then T1 commits, then T2 — which was merely preempted throughout.
	wantRow(t, res, "T3", "#####       ")
	wantRow(t, res, "T1", "  ...#      ")
	wantRow(t, res, "T2", "   ---##    ")
	checkSerializable(t, res, true)
}

func TestIdleTicksCounted(t *testing.T) {
	s := txn.NewSet("idle")
	x := s.Catalog.Intern("x")
	s.Add(&txn.Template{Name: "T1", Offset: 3, Steps: []txn.Step{txn.Read(x)}})
	s.AssignByIndex()
	res := run(t, s, pcpda.New(), 6)
	// Idle ticks: 0,1,2 before release and 4,5 after completion.
	if res.IdleTicks != 5 {
		t.Errorf("idle = %d, want 5", res.IdleTicks)
	}
	if res.Committed != 1 {
		t.Errorf("committed = %d", res.Committed)
	}
}

func TestFirmDeadlineAborts(t *testing.T) {
	// H's deadline is feasible in isolation (C=3, D=3) but L's read lock on
	// x blocks H's write for 2 ticks, so H blows its deadline and is
	// aborted under FirmAbort.
	s := txn.NewSet("firm")
	x := s.Catalog.Intern("x")
	s.Add(&txn.Template{Name: "H", Offset: 1, Deadline: 3, Steps: []txn.Step{txn.Write(x), txn.Comp(2)}})
	s.Add(&txn.Template{Name: "L", Offset: 0, Steps: []txn.Step{txn.Read(x), txn.Comp(2)}})
	s.AssignByIndex()
	k, err := New(s, pcpda.New(), Config{Horizon: 10, Deadline: FirmAbort, RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	res := k.Run()
	if res.Aborts != 1 || res.Misses != 1 {
		t.Fatalf("aborts=%d misses=%d, want 1/1", res.Aborts, res.Misses)
	}
	// The aborted job's workspace writes must not be installed.
	rep := res.History.Check()
	if !rep.Serializable {
		t.Errorf("firm abort broke serializability: %v", rep.Violations)
	}
	if lw := res.History.LastWriters(); len(lw) != 0 {
		t.Errorf("aborted writes installed: %v", lw)
	}
}

func TestHardDeadlineRecordsButCompletes(t *testing.T) {
	s := txn.NewSet("hard")
	x := s.Catalog.Intern("x")
	s.Add(&txn.Template{Name: "H", Offset: 1, Deadline: 3, Steps: []txn.Step{txn.Write(x), txn.Comp(2)}})
	s.Add(&txn.Template{Name: "L", Offset: 0, Steps: []txn.Step{txn.Read(x), txn.Comp(2)}})
	s.AssignByIndex()
	res := run(t, s, pcpda.New(), 10)
	if res.Misses != 1 || res.Aborts != 0 {
		t.Fatalf("misses=%d aborts=%d, want 1/0", res.Misses, res.Aborts)
	}
	if res.Committed != 2 {
		t.Fatalf("committed = %d, want 2 (late job still finishes)", res.Committed)
	}
}

func TestResponseTimes(t *testing.T) {
	res := run(t, papercases.Example3(), pcpda.New(), papercases.Example3Horizon)
	if j := jobOf(t, res, "T1", 0); j.ResponseTime() != 2 {
		t.Errorf("T1 first response = %d, want 2", j.ResponseTime())
	}
	if j := jobOf(t, res, "T2", 0); j.ResponseTime() != 9 {
		t.Errorf("T2 response = %d, want 9", j.ResponseTime())
	}
}

func TestTimelineEventsIncludeLocksAndCommits(t *testing.T) {
	res := run(t, papercases.Example3(), pcpda.New(), papercases.Example3Horizon)
	rendered := res.Timeline.Render(res.Set)
	for _, frag := range []string{"RL(x)", "RL(y)", "WL(x)", "WL(y)", "commit", "arr"} {
		if !strings.Contains(rendered, frag) {
			t.Errorf("timeline missing %q:\n%s", frag, rendered)
		}
	}
}

func TestFinalStateMatchesHistory(t *testing.T) {
	// The store's final contents must equal a serial replay in commit
	// order: for every item, the last committed installer's value.
	for _, build := range []func() *txn.Set{papercases.Example1, papercases.Example3, papercases.Example4, papercases.LC4Deadlock} {
		set := build()
		res := run(t, set, pcpda.New(), 20)
		for it, wantRun := range res.History.LastWriters() {
			_, _, gotRun := res.Store.Read(it)
			if gotRun != wantRun {
				t.Errorf("%s: item %d final writer %d, want %d", set.Name, it, gotRun, wantRun)
			}
		}
	}
}

func TestCeilingTrackMirrorsTimeline(t *testing.T) {
	res := run(t, papercases.Example4(), pcpda.New(), papercases.Example4Horizon)
	if res.Timeline.MaxCeiling() != res.MaxSysceil {
		t.Errorf("timeline max ceiling %v != result %v", res.Timeline.MaxCeiling(), res.MaxSysceil)
	}
}

func TestGrantCountersPlausible(t *testing.T) {
	res := run(t, papercases.Example4(), pcpda.New(), papercases.Example4Horizon)
	// Example 4 under PCP-DA: grants are LC2 (reads of y by T4, x by T1),
	// LC4 (read of z), LC1 (writes of z, x, y).
	if n := res.Decisions.Of("LC1").Grants; n != 3 {
		t.Errorf("LC1 = %d, want 3 (%v)", n, res.Decisions)
	}
	if n := res.Decisions.Of("LC2").Grants; n != 2 {
		t.Errorf("LC2 = %d, want 2 (%v)", n, res.Decisions)
	}
	for _, r := range res.Decisions {
		if r.Blocks != 0 {
			t.Errorf("unexpected blockings: %v", res.Decisions)
		}
	}
}

func TestAuditCleanOnPaperCases(t *testing.T) {
	// The paper's claim: the Table-1 side condition never fires on the LC2
	// or LC3 grant paths, so the tally never counts a table1-on-* rule.
	for _, build := range []func() *txn.Set{papercases.Example1, papercases.Example3, papercases.Example4, papercases.Example5, papercases.LC4Deadlock} {
		res := run(t, build(), pcpda.New(), 20)
		for _, r := range res.Decisions {
			if strings.HasPrefix(r.Rule, "table1-on-") {
				t.Errorf("%s: %s fired, %d fresh denials; want it never to fire", res.Set.Name, r.Rule, r.Blocks)
			}
		}
	}
}

func TestTraceLegendStable(t *testing.T) {
	if !strings.Contains(trace.Legend(), "executing") {
		t.Error("legend changed unexpectedly")
	}
}
