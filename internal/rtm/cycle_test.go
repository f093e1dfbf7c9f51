package rtm

import (
	"context"
	"testing"
	"time"

	"pcpda/internal/cc"
	"pcpda/internal/db"
	"pcpda/internal/papercases"
	"pcpda/internal/rt"
	"pcpda/internal/txn"
)

// cycleSet is the adversarial two-transaction shape that COULD close a
// commit-wait/lock-wait cycle if the locking conditions were weaker:
//
//	TH (high): Read(x), Write(y)
//	TL (low):  Write(x), Read(y)
//
// The tests below demonstrate that PCP-DA's own guards make the cycle
// unreachable in both interleavings — live, under free threading:
//
//   - If TH reads x (through TL's write lock) FIRST, then TL's read of y is
//     ceiling-blocked: TH's read lock on x raises Wceil(x) = P_TL into
//     TL's Sysceil, and LC3 fails because Wceil(y) = P_TH > P_TL. TL
//     simply waits until TH commits.
//   - If TL read-locks y FIRST, then TH's read of x is denied by Table 1:
//     DataRead(TL) ∩ WriteSet(TH) = {y} ≠ ∅. TH waits until TL commits.
//
// Either way one transaction finishes and unblocks the other; the
// cycle-breaking abort machinery stays cold (Stats().CycleAborts == 0).
func cycleSet() (*txn.Set, rt.Item, rt.Item) {
	s := txn.NewSet("cycle")
	x := s.Catalog.Intern("x")
	y := s.Catalog.Intern("y")
	s.Add(&txn.Template{Name: "TH", Steps: []txn.Step{txn.Read(x), txn.Write(y)}})
	s.Add(&txn.Template{Name: "TL", Steps: []txn.Step{txn.Write(x), txn.Read(y)}})
	s.AssignByIndex()
	return s, x, y
}

func TestCycleGuardCeilingOrder(t *testing.T) {
	// TH's stale read first: TL's subsequent Read(y) must WAIT (ceiling),
	// not deadlock, and proceed after TH commits.
	s, x, y := cycleSet()
	m, err := New(s)
	if err != nil {
		t.Fatal(err)
	}
	c, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	tl, _ := m.Begin(c, "TL")
	if err := tl.Write(c, x, 1); err != nil {
		t.Fatal(err)
	}
	th, _ := m.Begin(c, "TH")
	if v, err := th.Read(c, x); err != nil || v != 0 {
		t.Fatalf("stale read: v=%v err=%v", v, err)
	}

	tlRead := make(chan error, 1)
	go func() {
		_, err := tl.Read(c, y)
		tlRead <- err
	}()
	waitBlocked(t, m, tl)
	select {
	case err := <-tlRead:
		t.Fatalf("TL's read must be ceiling-blocked, got %v", err)
	default:
	}

	// TH runs to completion; TL then proceeds and commits.
	if err := th.Write(c, y, 2); err != nil {
		t.Fatal(err)
	}
	if err := th.Commit(c); err != nil {
		t.Fatal(err)
	}
	if err := <-tlRead; err != nil {
		t.Fatalf("TL read after TH commit: %v", err)
	}
	if err := tl.Commit(c); err != nil {
		t.Fatal(err)
	}
	if n := m.Stats().CycleAborts; n != 0 {
		t.Fatalf("cycle breaker fired %d times; the guards should prevent that", n)
	}
	rep := m.History().Check()
	if !rep.Serializable || !rep.CommitOrderOK {
		t.Fatalf("history: %v", rep.Violations)
	}
	// TL read y AFTER TH's commit: it must see TH's value.
	if v := m.ReadCommitted(y); v != 2 {
		t.Fatalf("y = %v", v)
	}
}

func TestCycleGuardTable1Order(t *testing.T) {
	// TL read-locks y first: TH's read of the write-locked x must WAIT
	// (Table 1), not slip through into a cycle.
	s, x, y := cycleSet()
	m, err := New(s)
	if err != nil {
		t.Fatal(err)
	}
	c, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	tl, _ := m.Begin(c, "TL")
	if err := tl.Write(c, x, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := tl.Read(c, y); err != nil {
		t.Fatal(err)
	}
	th, _ := m.Begin(c, "TH")

	thRead := make(chan error, 1)
	var got db.Value
	go func() {
		v, err := th.Read(c, x)
		got = v
		thRead <- err
	}()
	waitBlocked(t, m, th)
	select {
	case err := <-thRead:
		t.Fatalf("TH's read must be blocked by Table 1, got %v", err)
	default:
	}

	if err := tl.Commit(c); err != nil {
		t.Fatalf("TL has no stale readers (TH never got the lock): %v", err)
	}
	if err := <-thRead; err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("TH read %v, want TL's committed 1", got)
	}
	if err := th.Write(c, y, 2); err != nil {
		t.Fatal(err)
	}
	if err := th.Commit(c); err != nil {
		t.Fatal(err)
	}
	if n := m.Stats().CycleAborts; n != 0 {
		t.Fatalf("cycle breaker fired %d times", n)
	}
	rep := m.History().Check()
	if !rep.Serializable || !rep.CommitOrderOK {
		t.Fatalf("history: %v", rep.Violations)
	}
}

// TestResolveCycleUnit exercises the defensive cycle breaker directly by
// fabricating a wait cycle in manager state — unreachable through the
// public API (the tests above show the guards prevent it), but kept as
// defense-in-depth for the free-threading deviation documented in the
// package comment.
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
// TestLC4DeadlockOrder drives papercases.LC4Deadlock in the order that
// deadlocks LC2 as the paper states it: L read-locks y; H reads x under LC4
// and writes it; H's write of y waits on L's read lock, so L inherits P_H;
// L's read of x then meets Sysceil_L = Wceil(x) = P_H, raised by H's read
// lock. Every holder of that lock waits on L, so the read is granted, L
// commits, H's write goes through, and the cycle breaker stays cold.
func TestLC4DeadlockOrder(t *testing.T) {
	s := papercases.LC4Deadlock()
	x, _ := s.Catalog.Lookup("x")
	y, _ := s.Catalog.Lookup("y")
	m, err := New(s)
	if err != nil {
		t.Fatal(err)
	}
	c := ctx(t)
	l, _ := m.Begin(c, "L")
	if _, err := l.Read(c, y); err != nil {
		t.Fatal(err)
	}
	h, _ := m.Begin(c, "H")
	if _, err := h.Read(c, x); err != nil {
		t.Fatal(err)
	}
	if err := h.Write(c, x, 1); err != nil {
		t.Fatal(err)
	}
	hWrite := make(chan error, 1)
	go func() { hWrite <- h.Write(c, y, 2) }()
	waitBlocked(t, m, h)
	if v, err := l.Read(c, x); err != nil || v != 0 {
		t.Fatalf("L's read of x under an inherited P_H: v=%v err=%v, want the committed 0", v, err)
	}
	if err := l.Commit(c); err != nil {
		t.Fatal(err)
	}
	if err := <-hWrite; err != nil {
		t.Fatal(err)
	}
	if err := h.Commit(c); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.CycleAborts != 0 || st.Commits != 2 {
		t.Fatalf("%d cycle aborts, %d commits; want 0 and 2", st.CycleAborts, st.Commits)
	}
	if rep := m.History().Check(); !rep.Serializable || !rep.CommitOrderOK {
		t.Fatalf("history: %v", rep.Violations)
	}
}

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
