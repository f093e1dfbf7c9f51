package ccp

import (
	"testing"

	"pcpda/internal/papercases"
	"pcpda/internal/rt"
	"pcpda/internal/rwpcp"
	"pcpda/internal/sched"
	"pcpda/internal/txn"
)

func TestIdentity(t *testing.T) {
	p := New()
	if p.Name() != "CCP" || p.Deferred() {
		t.Fatal("identity wrong")
	}
}

// earlyReleaseSet: L reads x, then computes for a long tail; H writes x.
// Under RW-PCP H waits until L commits; under CCP the read lock (and its
// ceiling) drops when L's last lock step completes, so H runs during L's
// tail.
func earlyReleaseSet() *txn.Set {
	s := txn.NewSet("early")
	x := s.Catalog.Intern("x")
	s.Add(&txn.Template{Name: "H", Offset: 2, Steps: []txn.Step{txn.Write(x)}})
	s.Add(&txn.Template{Name: "L", Offset: 0, Steps: []txn.Step{txn.Read(x), txn.Comp(6)}})
	s.AssignByIndex()
	return s
}

func TestEarlyReleaseShortensBlocking(t *testing.T) {
	set1 := earlyReleaseSet()
	k1, err := sched.New(set1, New(), sched.Config{Horizon: 15, RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	ccpRes := k1.Run()

	set2 := earlyReleaseSet()
	k2, err := sched.New(set2, rwpcp.New(), sched.Config{Horizon: 15, RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	rwRes := k2.Run()

	blocked := func(res *sched.Result, name string) rt.Ticks {
		var total rt.Ticks
		for _, j := range res.Jobs {
			if res.Set.Templates[j.Tmpl].Name == name {
				total += j.BlockedTicks
			}
		}
		return total
	}
	ccpH, rwH := blocked(ccpRes, "H"), blocked(rwRes, "H")
	if ccpH >= rwH {
		t.Fatalf("CCP blocking (%d) must beat RW-PCP (%d) with a compute tail", ccpH, rwH)
	}
	// L's read lock is gone after t=0 (its only lock step): H arrives at 2
	// and runs immediately under CCP.
	if ccpH != 0 {
		t.Fatalf("CCP H blocked %d ticks, want 0", ccpH)
	}
	for _, res := range []*sched.Result{ccpRes, rwRes} {
		rep := res.History.Check()
		if !rep.Serializable {
			t.Errorf("%s history: %v", res.Protocol, rep.Violations)
		}
	}
}

func TestEarlyReleaseKeepsWriteLocks(t *testing.T) {
	// A transaction with trailing compute after a WRITE must keep the write
	// lock to commit (abort safety): its in-place value stays protected,
	// also when it read the item first and so holds it in both modes.
	cases := []struct {
		name string
		cfg  sched.Config
		add  func(s *txn.Set, x rt.Item)
	}{
		{"blind write", sched.Config{Horizon: 12}, func(s *txn.Set, x rt.Item) {
			s.Add(&txn.Template{Name: "H", Offset: 1, Steps: []txn.Step{txn.Read(x)}})
			s.Add(&txn.Template{Name: "L", Offset: 0, Steps: []txn.Step{txn.Write(x), txn.Comp(4)}})
		}},
		{"read then write", sched.Config{Horizon: 14}, func(s *txn.Set, x rt.Item) {
			s.Add(&txn.Template{Name: "H", Offset: 3, Steps: []txn.Step{txn.Read(x)}})
			s.Add(&txn.Template{Name: "L", Offset: 0, Steps: []txn.Step{txn.Read(x), txn.Write(x), txn.Comp(6)}})
		}},
		// L misses its deadline under M's preemption and is aborted: a read
		// of its uncommitted write by H would be a dirty read.
		{"read then write, aborted", sched.Config{Horizon: 20, Deadline: sched.FirmAbort}, func(s *txn.Set, x rt.Item) {
			s.Add(&txn.Template{Name: "H", Offset: 3, Steps: []txn.Step{txn.Read(x)}})
			s.Add(&txn.Template{Name: "M", Offset: 4, Steps: []txn.Step{txn.Comp(8)}})
			s.Add(&txn.Template{Name: "L", Offset: 0, Deadline: 10, Steps: []txn.Step{txn.Read(x), txn.Write(x), txn.Comp(6)}})
		}},
	}
	for _, c := range cases {
		s := txn.NewSet("keepw")
		c.add(s, s.Catalog.Intern("x"))
		s.AssignByIndex()
		c.cfg.RecordTrace = true
		k, err := sched.New(s, New(), c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		res := k.Run()
		// H must be blocked while L's write lock persists through the tail.
		for _, j := range res.Jobs {
			if res.Set.Templates[j.Tmpl].Name == "H" && j.BlockedTicks == 0 {
				t.Errorf("%s: write lock released early: H never blocked", c.name)
			}
		}
		if rep := res.History.Check(); !rep.Serializable || len(rep.Violations) != 0 {
			t.Errorf("%s: history: %v", c.name, rep.Violations)
		}
	}
}

func TestCCPNeverBlocksMoreThanRWPCPOnPaperCases(t *testing.T) {
	cases := []struct {
		build   func() *txn.Set
		horizon rt.Ticks
	}{
		{papercases.Example1, papercases.Example1Horizon},
		{papercases.Example3, papercases.Example3Horizon},
		{papercases.Example4, papercases.Example4Horizon},
		{papercases.Example5, 20},
	}
	for _, c := range cases {
		kc, err := sched.New(c.build(), New(), sched.Config{Horizon: c.horizon})
		if err != nil {
			t.Fatal(err)
		}
		cr := kc.Run()
		kr, err := sched.New(c.build(), rwpcp.New(), sched.Config{Horizon: c.horizon})
		if err != nil {
			t.Fatal(err)
		}
		rr := kr.Run()
		var cb, rb rt.Ticks
		for _, j := range cr.Jobs {
			cb += j.BlockedTicks
		}
		for _, j := range rr.Jobs {
			rb += j.BlockedTicks
		}
		if cb > rb {
			t.Errorf("%s: CCP blocking %d > RW-PCP %d", cr.Set.Name, cb, rb)
		}
		if cr.Deadlocked {
			t.Errorf("%s: CCP deadlocked", cr.Set.Name)
		}
	}
}
