package rtm

import (
	"context"
	"testing"
	"time"

	"pcpda/internal/cc"
	"pcpda/internal/rt"
	"pcpda/internal/txn"
)

// cycleSet is the two-transaction shape that could close a
// commit-wait/lock-wait cycle if the locking conditions were weaker:
//
//	TH (high): Read(x), Write(y)
//	TL (low):  Write(x), Read(y)
//
// sim.TestExploreManagerFreeOrder runs every interleaving of it on the
// manager and pins the two that PCP-DA's guards decide (rows
// CycleGuardCeilingOrder and CycleGuardTable1Order).
func cycleSet() (*txn.Set, rt.Item, rt.Item) {
	s := txn.NewSet("cycle")
	x := s.Catalog.Intern("x")
	y := s.Catalog.Intern("y")
	s.Add(&txn.Template{Name: "TH", Steps: []txn.Step{txn.Read(x), txn.Write(y)}})
	s.Add(&txn.Template{Name: "TL", Steps: []txn.Step{txn.Write(x), txn.Read(y)}})
	s.AssignByIndex()
	return s, x, y
}

// TestResolveCycleUnit exercises the cycle breaker's victim choice directly
// by fabricating a wait cycle in manager state. Through the public API the
// breaker is reached under free threading only (the CycleBreakerReachable
// row of sim.TestExploreManagerFreeOrder).
func TestResolveCycleUnit(t *testing.T) {
	s, _, _ := cycleSet()
	m, err := New(s)
	if err != nil {
		t.Fatal(err)
	}
	c := context.Background()
	a, _ := m.Begin(c, "TH")
	b, _ := m.Begin(c, "TL")

	m.mu.Lock()
	a.slot.job.Status = cc.Blocked
	a.slot.job.Blockers = []rt.JobID{b.slot.job.ID}
	b.slot.job.Status = cc.Blocked
	b.slot.job.Blockers = []rt.JobID{a.slot.job.ID}
	victim := m.resolveCycle(a)
	m.mu.Unlock()
	if victim != b {
		t.Fatalf("victim = %v, want the lower-priority TL", victim)
	}

	// No cycle: blocker chain ends at a running transaction.
	m.mu.Lock()
	b.slot.job.Status = cc.Ready
	b.slot.job.Blockers = nil
	if v := m.resolveCycle(a); v != nil {
		m.mu.Unlock()
		t.Fatalf("no cycle but victim %v", v)
	}
	a.slot.job.Status = cc.Ready
	a.slot.job.Blockers = nil
	m.mu.Unlock()
	a.Abort()
	b.Abort()
}

// TestRaisedLockWaiterIsWoken: LC2 admits on the running priority, so a
// parked lock waiter whose priority rises may now pass and inherit hands it a
// wake token; a parked commit waiter depends only on its stale readers
// finishing and gets none. The state is fabricated as in TestResolveCycleUnit:
// T1 parks behind T2, then T0 blocks on T1 and raises it.
func TestRaisedLockWaiterIsWoken(t *testing.T) {
	for _, tc := range []struct {
		name  string
		kind  waitKind
		woken bool
	}{{"lock waiter", waitLock, true}, {"commit waiter", waitCommit, false}} {
		t.Run(tc.name, func(t *testing.T) {
			m, _ := New(contendedSet())
			c := ctx(t)
			hi, mid, lo := mustBegin(t, m, c, "T0"), mustBegin(t, m, c, "T1"), mustBegin(t, m, c, "T2")
			h, j, n := &hi.slot.job, &mid.slot.job, &mid.slot.wn

			m.mu.Lock()
			n.kind = tc.kind
			j.Status, j.Blockers = cc.Blocked, []rt.JobID{lo.ID()}
			m.register(n, j.Blockers)
			m.inherit() // raises T2, which is not parked; T1 stays at its base
			tokenBefore := len(n.ch)
			h.Status, h.Blockers = cc.Blocked, []rt.JobID{mid.ID()}
			m.inherit()
			raised, woken := j.RunPri == h.BasePri() && lo.slot.job.RunPri == h.BasePri(), len(n.ch) == 1
			m.deregister(n)
			n.drain()
			h.Status, h.Blockers = cc.Ready, nil
			j.Status, j.Blockers = cc.Ready, nil
			m.inherit()
			m.mu.Unlock()

			if tokenBefore != 0 {
				t.Fatal("a waiter whose priority did not rise was woken")
			}
			if !raised {
				t.Fatal("T0's priority did not reach T1 and T2")
			}
			if woken != tc.woken {
				t.Fatalf("raised %s woken = %v, want %v", tc.name, woken, tc.woken)
			}
			hi.Abort()
			mid.Abort()
			lo.Abort()
			assertQuiescent(t, m)
		})
	}
}

// waitBlocked polls until tx's job is observed Blocked (under the manager
// lock), failing the test after a deadline.
func waitBlocked(t *testing.T, m *Manager, tx *Txn) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		m.mu.Lock()
		blocked := tx.slot.job.Status == cc.Blocked
		m.mu.Unlock()
		if blocked {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("transaction never blocked")
}
