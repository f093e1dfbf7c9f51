package pip

import (
	"testing"

	"pcpda/internal/cc"
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
	s.Add(&txn.Template{Name: "A", Steps: []txn.Step{txn.Read(x)}})
	s.Add(&txn.Template{Name: "B", Steps: []txn.Step{txn.Read(x), txn.Write(x)}})
	s.AssignByIndex()
	p := New()
	p.Init(s, txn.ComputeCeilings(s))
	env := cctest.NewEnv()
	env.AddJob(0, s.ByName("A"))
	env.AddJob(1, s.ByName("B"))
	return env, p, x
}

func TestReadShares(t *testing.T) {
	env, p, x := fixture(t)
	env.ReadLock(1, x)
	if dec := p.Request(env, env.Job(0), x, rt.Read); !dec.Granted {
		t.Fatalf("read/read denied: %+v", dec)
	}
}

func TestWriteConflicts(t *testing.T) {
	env, p, x := fixture(t)
	env.ReadLock(0, x)
	dec := p.Request(env, env.Job(1), x, rt.Write)
	if dec.Granted {
		t.Fatalf("write over foreign read granted: %+v", dec)
	}
	if len(dec.Blockers) != 1 || dec.Blockers[0] != 0 {
		t.Fatalf("blockers = %v", dec.Blockers)
	}
}

func TestReadBlockedByWriter(t *testing.T) {
	env, p, x := fixture(t)
	env.WriteLock(1, x)
	if dec := p.Request(env, env.Job(0), x, rt.Read); dec.Granted {
		t.Fatalf("read over foreign write granted: %+v", dec)
	}
}

func TestOwnLocksNeverConflict(t *testing.T) {
	env, p, x := fixture(t)
	env.ReadLock(1, x)
	if dec := p.Request(env, env.Job(1), x, rt.Write); !dec.Granted {
		t.Fatalf("own upgrade denied: %+v", dec)
	}
}

func TestBlockersDeduplicated(t *testing.T) {
	// A holder with both a read and a write lock must appear once in the
	// blocker set the engines keep, the one cc.Apply leaves in j.Blockers.
	// A write request conflicts with both of its locks.
	for _, m := range []rt.Mode{rt.Read, rt.Write} {
		env, p, x := fixture(t)
		env.ReadLock(1, x)
		env.WriteLock(1, x)
		j := env.Job(0)
		dec := p.Request(env, j, x, m)
		var tally cc.Tally
		cc.Apply(env, j, x, m, dec, &tally)
		if dec.Granted || len(j.Blockers) != 1 || j.Blockers[0] != 1 {
			t.Fatalf("%v request: decision %+v leaves blockers %v, want [1]", m, dec, j.Blockers)
		}
	}
}

func TestPIPDeadlocksOnExample5(t *testing.T) {
	// Classic 2PL with inheritance deadlocks on the paper's Example 5 shape
	// (read locks taken crosswise, then upgrades collide).
	k, err := sched.New(papercases.Example5(), New(), sched.Config{
		Horizon:        papercases.Example5Horizon,
		StopOnDeadlock: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := k.Run()
	if !res.Deadlocked {
		t.Fatal("PIP must deadlock on Example 5")
	}
	if len(res.DeadlockCycle) < 2 {
		t.Fatalf("cycle = %v", res.DeadlockCycle)
	}
}

func TestChainedBlocking(t *testing.T) {
	// The motivating defect of bare PIP (paper Section 1): a high-priority
	// transaction is blocked once per lower-priority lock holder. H needs
	// x and y, held by two different lower-priority transactions that
	// arrived first.
	s := txn.NewSet("chain")
	x := s.Catalog.Intern("x")
	y := s.Catalog.Intern("y")
	s.Add(&txn.Template{Name: "H", Offset: 2, Steps: []txn.Step{txn.Write(x), txn.Write(y)}})
	s.Add(&txn.Template{Name: "M", Offset: 1, Steps: []txn.Step{txn.Read(y), txn.Comp(3)}})
	s.Add(&txn.Template{Name: "L", Offset: 0, Steps: []txn.Step{txn.Read(x), txn.Comp(5)}})
	s.AssignByIndex()
	k, err := sched.New(s, New(), sched.Config{Horizon: 20, RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	res := k.Run()
	if res.Deadlocked {
		t.Fatal("no deadlock expected here")
	}
	// H is blocked first by L (on x), later by M (on y): two distinct
	// lower-priority blockers — impossible under any ceiling protocol.
	var h = res.Jobs[0]
	for _, j := range res.Jobs {
		if res.Set.Templates[j.Tmpl].Name == "H" {
			h = j
		}
	}
	if h.BlockedTicks == 0 {
		t.Fatal("H never blocked?")
	}
	// Both blockings are priority inversions.
	if h.InvBlockTicks < 2 {
		t.Fatalf("expected chained inversion, got %d inversion ticks", h.InvBlockTicks)
	}
	rep := res.History.Check()
	if !rep.Serializable {
		t.Errorf("PIP history not serializable: %v", rep.Violations)
	}
}

func TestIdentity(t *testing.T) {
	p := New()
	if p.Name() != "2PL-PIP" || p.Deferred() {
		t.Fatalf("identity wrong")
	}
}
