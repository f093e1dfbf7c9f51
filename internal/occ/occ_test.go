package occ

import (
	"testing"

	"pcpda/internal/cctest"
	"pcpda/internal/papercases"
	"pcpda/internal/rt"
	"pcpda/internal/sched"
	"pcpda/internal/txn"
	"pcpda/internal/workload"
)

func TestAlwaysGrants(t *testing.T) {
	s := papercases.Example5()
	p := New()
	p.Init(s, txn.ComputeCeilings(s))
	env := cctest.NewEnv()
	th := env.AddJob(0, s.ByName("TH"))
	tl := env.AddJob(1, s.ByName("TL"))
	x, _ := s.Catalog.Lookup("x")
	env.ReadLock(tl.ID, x)
	env.WriteLock(tl.ID, x)
	// Even with every kind of foreign lock present, OCC grants.
	for _, m := range []rt.Mode{rt.Read, rt.Write} {
		if dec := p.Request(env, th, x, m); !dec.Granted {
			t.Fatalf("OCC blocked a %v request: %+v", m, dec)
		}
	}
}

func TestCommitVictims(t *testing.T) {
	s := txn.NewSet("v")
	x := s.Catalog.Intern("x")
	y := s.Catalog.Intern("y")
	s.Add(&txn.Template{Name: "W", Steps: []txn.Step{txn.Write(x)}})
	s.Add(&txn.Template{Name: "RX", Steps: []txn.Step{txn.Read(x)}})
	s.Add(&txn.Template{Name: "RY", Steps: []txn.Step{txn.Read(y)}})
	s.AssignByIndex()
	p := New()
	p.Init(s, txn.ComputeCeilings(s))
	env := cctest.NewEnv()
	w := env.AddJob(0, s.ByName("W"))
	rx := env.AddJob(1, s.ByName("RX"))
	ry := env.AddJob(2, s.ByName("RY"))
	w.WS.Write(x, 1)
	rx.DataRead.Add(x)
	ry.DataRead.Add(y)
	victims := p.CommitVictims(env, w)
	if len(victims) != 1 || victims[0] != rx.ID {
		t.Fatalf("victims = %v, want [RX]", victims)
	}
}

func TestKernelRunSerializableWithRestarts(t *testing.T) {
	// A writer committing mid-flight of a long reader must restart the
	// reader; the final history is serializable and the reader's committed
	// run observes the new value.
	s := txn.NewSet("occ-run")
	x := s.Catalog.Intern("x")
	s.Add(&txn.Template{Name: "W", Offset: 2, Steps: []txn.Step{txn.Write(x)}})
	s.Add(&txn.Template{Name: "R", Offset: 0, Steps: []txn.Step{txn.Read(x), txn.Comp(5)}})
	s.AssignByIndex()
	k, err := sched.New(s, New(), sched.Config{Horizon: 20, RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	res := k.Run()
	if res.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1 (R invalidated by W's commit)", res.Restarts)
	}
	if res.Committed != 2 {
		t.Fatalf("committed = %d", res.Committed)
	}
	rep := res.History.Check()
	if !rep.Serializable {
		t.Fatalf("history: %v\n%s", rep.Violations, res.History)
	}
	if !rep.CommitOrderOK {
		t.Fatalf("OCC-BC must serialize in commit order: %v", rep.Violations)
	}
	// Nothing ever blocks under OCC.
	for _, j := range res.Jobs {
		if j.BlockedTicks != 0 {
			t.Fatalf("%s blocked %d ticks under OCC", res.Set.Templates[j.Tmpl].Name, j.BlockedTicks)
		}
	}
}

func TestNoDeadlockNoBlockSweep(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		set, err := workload.Generate(workload.Config{
			N: 6, Items: 5, Utilization: 0.55,
			PeriodMin: 30, PeriodMax: 300,
			OpsMin: 1, OpsMax: 4, WriteProb: 0.5, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		k, err := sched.New(set, New(), sched.Config{Horizon: 3000, StopOnDeadlock: true})
		if err != nil {
			t.Fatal(err)
		}
		res := k.Run()
		if res.Deadlocked {
			t.Fatalf("seed %d: OCC deadlocked", seed)
		}
		rep := res.History.Check()
		if !rep.Serializable {
			t.Fatalf("seed %d: %v", seed, rep.Violations)
		}
		for _, j := range res.Jobs {
			if j.BlockedTicks != 0 {
				t.Fatalf("seed %d: blocking under OCC", seed)
			}
		}
	}
}

func TestIdentity(t *testing.T) {
	p := New()
	if p.Name() != "OCC-BC" || !p.Deferred() {
		t.Fatal("identity wrong")
	}
}
