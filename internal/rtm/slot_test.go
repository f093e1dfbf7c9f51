package rtm

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"

	"pcpda/internal/cc"
	"pcpda/internal/fault"
	"pcpda/internal/rt"
)

// Slot-reuse tests: a template's slot serves one instance after another, so
// whatever still refers to a finished instance — its handle, a waiter woken
// by its finish, a DFS colour, a rolled-back batch — must find nothing of
// the successor. All of these run under -race in CI.

// mustBegin begins name or fails the test.
func mustBegin(t *testing.T, m *Manager, c context.Context, name string) *Txn {
	t.Helper()
	tx, err := m.Begin(c, name)
	if err != nil {
		t.Fatal(err)
	}
	return tx
}

// assertQuiescent demands what every test here ends on: nothing live,
// nothing parked, every slot free and clean.
func assertQuiescent(t *testing.T, m *Manager) {
	t.Helper()
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if n := m.ParkedWaiters(); n != 0 {
		t.Fatalf("%d waiters still parked", n)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.active) != 0 {
		t.Fatalf("%d instances still live", len(m.active))
	}
	for i := range m.slots {
		if m.slots[i].cur != nil {
			t.Fatalf("slot of template %d still taken by job %d", i, m.slots[i].cur.id)
		}
	}
}

// TestStaleHandleLeavesSuccessorAlone: a finished handle answers from its
// own done bit — ErrClosed, no-op Abort, the id and template it always had —
// while the next instance of its template runs in the same slot untouched.
func TestStaleHandleLeavesSuccessorAlone(t *testing.T) {
	s, x, y := demoSet(t)
	m, _ := New(s)
	c := ctx(t)
	tx1 := mustBegin(t, m, c, "updater")
	if err := tx1.Write(c, x, 1); err != nil {
		t.Fatal(err)
	}
	if err := tx1.Commit(c); err != nil {
		t.Fatal(err)
	}
	id1, run1 := tx1.ID(), tx1.run()

	tx2 := mustBegin(t, m, c, "updater")
	if tx2.slot != tx1.slot {
		t.Fatal("the successor did not reuse the template's slot")
	}
	if tx2.run() != tx2.slot.job.Run || tx1.run() != run1 || run1 == tx2.run() {
		t.Fatalf("run ids: the live handle says %d, its job %d; the finished handle %d (was %d)",
			tx2.run(), tx2.slot.job.Run, tx1.run(), run1)
	}
	if err := tx2.Write(c, y, 2); err != nil {
		t.Fatal(err)
	}
	before := m.Stats()

	tx1.Abort()
	if _, err := tx1.Read(c, x); !errors.Is(err, ErrClosed) {
		t.Fatalf("Read on a finished handle = %v, want ErrClosed", err)
	}
	if err := tx1.Write(c, x, 9); !errors.Is(err, ErrClosed) {
		t.Fatalf("Write on a finished handle = %v, want ErrClosed", err)
	}
	if err := tx1.Commit(c); !errors.Is(err, ErrClosed) {
		t.Fatalf("Commit on a finished handle = %v, want ErrClosed", err)
	}
	if tx1.ID() != id1 || tx1.ID() == tx2.ID() || tx1.Template().Name != "updater" {
		t.Fatalf("finished handle reads id %d template %s (was id %d)", tx1.ID(), tx1.Template().Name, id1)
	}
	after := m.Stats()
	if after.Clock != before.Clock || after.Aborts != before.Aborts || after.Live != 1 {
		t.Fatalf("a finished handle moved the manager: %+v -> %+v", before, after)
	}
	m.mu.Lock()
	held := m.locks.HoldsWrite(tx2.ID(), y)
	m.mu.Unlock()
	if !held {
		t.Fatal("the successor lost its write lock to its predecessor's handle")
	}
	if err := tx2.Commit(c); err != nil {
		t.Fatal(err)
	}
	if v := m.ReadCommitted(y); v != 2 {
		t.Fatalf("y = %d, want the successor's 2", v)
	}
	if v := m.ReadCommitted(x); v != 1 {
		t.Fatalf("x = %d, want the predecessor's committed 1", v)
	}
	assertQuiescent(t, m)
}

// finishAndReadmit ends blocker and admits the next instance of its template
// under ONE hold of the manager mutex, so no waiter woken by the finish can
// resume in between: when it does, the id it was blocked on is gone and the
// slot it was filed under belongs to someone else.
func finishAndReadmit(m *Manager, blocker *Txn) *Txn {
	next := new(Txn)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.clock++
	m.stats.Aborts++
	m.kill(blocker)
	m.admit(blocker.slot, next)
	return next
}

// assertNothingInherited checks that the successor got nothing of what was
// filed under its predecessor: no waiter, no raised priority.
func assertNothingInherited(t *testing.T, m *Manager, next *Txn) {
	t.Helper()
	m.mu.Lock()
	defer m.mu.Unlock()
	s := next.slot
	if len(s.waiters) != 0 {
		t.Fatalf("successor inherited %d waiters", len(s.waiters))
	}
	if s.job.RunPri != s.job.BasePri() {
		t.Fatalf("successor inherited a raise: runs at %v over base %v", s.job.RunPri, s.job.BasePri())
	}
}

// TestWaiterOutlivesItsBlockersSlot: a lock waiter and a commit waiter whose
// blocker finishes and whose blocker's slot is re-admitted before the waiter
// resumes. The wake must not be lost, the waiter's late deregister and
// recompute must not reach the successor, and the injector's Delay at the wait
// points adds a yield after every resume.
func TestWaiterOutlivesItsBlockersSlot(t *testing.T) {
	delay := fault.Func(func(p fault.Point, _ string) fault.Action {
		if p == fault.BlockWait || p == fault.CommitWait || p == fault.LockRequest {
			return fault.Delay
		}
		return fault.Proceed
	})
	t.Run("lock waiter", func(t *testing.T) {
		s, x, _ := demoSet(t)
		m, _ := NewWithOptions(s, Options{Injector: delay})
		c := ctx(t)
		rd := mustBegin(t, m, c, "reader")
		if _, err := rd.Read(c, x); err != nil {
			t.Fatal(err)
		}
		up := mustBegin(t, m, c, "updater")
		wrote := make(chan error, 1)
		go func() { wrote <- up.Write(c, x, 7) }() // LC1: blocked by rd's read lock
		waitBlocked(t, m, up)

		rd2 := finishAndReadmit(m, rd)
		if err := <-wrote; err != nil {
			t.Fatalf("write after its blocker finished: %v", err)
		}
		assertNothingInherited(t, m, rd2)
		if err := up.Commit(c); err != nil {
			t.Fatal(err)
		}
		if v, err := rd2.Read(c, x); err != nil || v != 7 {
			t.Fatalf("successor read %d, %v", v, err)
		}
		if err := rd2.Commit(c); err != nil {
			t.Fatal(err)
		}
		assertQuiescent(t, m)
	})
	t.Run("commit waiter", func(t *testing.T) {
		s, x, _ := demoSet(t)
		m, _ := NewWithOptions(s, Options{Injector: delay})
		c := ctx(t)
		up := mustBegin(t, m, c, "updater")
		if err := up.Write(c, x, 7); err != nil {
			t.Fatal(err)
		}
		rd := mustBegin(t, m, c, "reader")
		if v, err := rd.Read(c, x); err != nil || v != 0 { // the pre-commit version
			t.Fatalf("stale read %d, %v", v, err)
		}
		committed := make(chan error, 1)
		go func() { committed <- up.Commit(c) }() // waits out the stale reader
		waitBlocked(t, m, up)

		rd2 := finishAndReadmit(m, rd)
		if err := <-committed; err != nil {
			t.Fatalf("commit after its stale reader finished: %v", err)
		}
		assertNothingInherited(t, m, rd2)
		if v, err := rd2.Read(c, x); err != nil || v != 7 {
			t.Fatalf("successor read %d, %v", v, err)
		}
		if err := rd2.Commit(c); err != nil {
			t.Fatal(err)
		}
		if st := m.Stats(); st.CommitWaits != 1 {
			t.Fatalf("%d commit waits, want 1", st.CommitWaits)
		}
		assertQuiescent(t, m)
	})
	// A waiter that raises its blocker: the low-priority holder inherits,
	// finishes, and the recompute at the waiter's wake finds neither it nor
	// its successor.
	t.Run("donation retracts to the fixpoint", func(t *testing.T) {
		s, _, y := cycleSet() // TL reads y, TH writes y
		m, _ := NewWithOptions(s, Options{Injector: delay})
		c := ctx(t)
		tl := mustBegin(t, m, c, "TL")
		if _, err := tl.Read(c, y); err != nil {
			t.Fatal(err)
		}
		th := mustBegin(t, m, c, "TH")
		wrote := make(chan error, 1)
		go func() { wrote <- th.Write(c, y, 1) }() // LC1: blocked by TL, which inherits
		waitBlocked(t, m, th)
		m.mu.Lock()
		inherited := tl.slot.job.RunPri
		m.mu.Unlock()
		if inherited != th.Template().Priority {
			t.Fatalf("TL runs at %v while blocking TH (%v)", inherited, th.Template().Priority)
		}
		if err := m.CheckInvariants(); err != nil { // the fixpoint agrees while parked
			t.Fatal(err)
		}
		tl2 := finishAndReadmit(m, tl)
		if err := <-wrote; err != nil {
			t.Fatal(err)
		}
		assertNothingInherited(t, m, tl2)
		if err := m.CheckInvariants(); err != nil { // and after the wake
			t.Fatal(err)
		}
		th.Abort()
		tl2.Abort()
		assertQuiescent(t, m)
	})
}

// TestCycleVictimInAReusedSlot: a cycle victim tears down and its slot is
// re-admitted; a chain through the old id to the running successor must not
// read as a cycle, and the successor must not inherit the victim's mark.
func TestCycleVictimInAReusedSlot(t *testing.T) {
	s, _, _ := cycleSet()
	m, _ := New(s)
	c := ctx(t)
	a := mustBegin(t, m, c, "TH")
	b := mustBegin(t, m, c, "TL")

	m.mu.Lock()
	a.slot.job.Status, a.slot.job.Blockers = cc.Blocked, []rt.JobID{b.ID()}
	b.slot.job.Status, b.slot.job.Blockers = cc.Blocked, []rt.JobID{a.ID()}
	victim := m.resolveCycle(a)
	if victim != nil {
		victim.aborted = true // what park does with it
	}
	a.slot.job.Status, a.slot.job.Blockers = cc.Ready, nil
	b.slot.job.Status, b.slot.job.Blockers = cc.Ready, nil
	m.mu.Unlock()
	if victim != b {
		t.Fatalf("victim %v, want TL", victim)
	}
	if _, err := b.Read(c, 1); !errors.Is(err, ErrAborted) {
		t.Fatalf("victim's next operation = %v, want ErrAborted", err)
	}

	b2 := mustBegin(t, m, c, "TL")
	m.mu.Lock()
	a.slot.job.Status, a.slot.job.Blockers = cc.Blocked, []rt.JobID{b2.ID(), b.ID()}
	v := m.resolveCycle(a)
	a.slot.job.Status, a.slot.job.Blockers = cc.Ready, nil
	m.mu.Unlock()
	if v != nil {
		t.Fatalf("a chain ending at a running successor read as a cycle, victim %v", v)
	}
	if b2.aborted {
		t.Fatal("the successor inherited its predecessor's victim mark")
	}
	a.Abort()
	b2.Abort()
	assertQuiescent(t, m)
}

// TestBatchRollbackFreesEverySlot: a BeginBatch that fails after admitting
// some of its instances — an injected abort at the last admission, then a
// cancellation while waiting for a busy slot — leaves every slot free.
func TestBatchRollbackFreesEverySlot(t *testing.T) {
	set := contendedSet()
	names := make([]string, len(set.Templates))
	for i, tmpl := range set.Templates {
		names[i] = tmpl.Name
	}
	last := names[len(names)-1]
	armed := true
	inj := fault.Func(func(p fault.Point, name string) fault.Action {
		if armed && p == fault.BeginTxn && name == last {
			return fault.ForceAbort
		}
		return fault.Proceed
	})
	m, _ := NewWithOptions(set, Options{Injector: inj})
	c := ctx(t)
	if _, err := m.BeginBatch(c, names); !errors.Is(err, ErrAborted) {
		t.Fatalf("batch with an injected abort = %v, want ErrAborted", err)
	}
	assertQuiescent(t, m)
	armed = false

	busy := mustBegin(t, m, c, last)
	dead, cancel := context.WithCancel(c)
	cancel()
	dead2, cancel2 := context.WithCancel(c)
	go func() {
		for m.ParkedWaiters() == 0 { // until the batch is parked on the busy slot
			runtime.Gosched()
		}
		cancel2()
	}()
	if _, err := m.BeginBatch(dead, names); !errors.Is(err, ErrCancelled) {
		t.Fatalf("batch on a dead context = %v", err)
	}
	if _, err := m.BeginBatch(dead2, names); !errors.Is(err, ErrCancelled) {
		t.Fatalf("batch cancelled while waiting for a slot = %v, want ErrCancelled", err)
	}
	if st := m.Stats(); st.Live != 1 || st.Batches != 0 {
		t.Fatalf("after two failed batches: %+v", st)
	}
	busy.Abort()
	assertQuiescent(t, m)

	txs, err := m.BeginBatch(c, names)
	if err != nil {
		t.Fatal(err)
	}
	for _, tx := range txs {
		tx.Abort()
	}
	assertQuiescent(t, m)
}

// TestForeignAbortOfAParkedTransaction: the server's watchdog aborts a
// transaction from another goroutine while its owner may be parked inside an
// operation. Everything the instance held goes at once, but the slot stays
// taken until the owner is out of park — its wait node's channel must never
// be shared with a successor — and the owner's operation reports ErrClosed.
func TestForeignAbortOfAParkedTransaction(t *testing.T) {
	s, x, _ := demoSet(t)
	m, _ := New(s)
	c := ctx(t)
	rd := mustBegin(t, m, c, "reader")
	if _, err := rd.Read(c, x); err != nil {
		t.Fatal(err)
	}
	up := mustBegin(t, m, c, "updater")
	wrote := make(chan error, 1)
	go func() { wrote <- up.Write(c, x, 7) }()
	waitBlocked(t, m, up)

	// The abort and what it must leave, under one hold of the mutex (the
	// owner cannot have moved yet).
	m.mu.Lock()
	m.clock++
	m.stats.Aborts++
	m.kill(up)
	slot := up.slot
	kept, parked, live := slot.cur == up, slot.wn.parked(), len(m.active)
	filed := len(rd.slot.waiters)
	m.mu.Unlock()
	if !kept || parked || live != 1 || filed != 0 {
		t.Fatalf("after a foreign abort: slot kept %v, node still filed %v (under the reader: %d), %d live", kept, parked, filed, live)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("a slot held for its parked owner must audit clean: %v", err)
	}
	if err := <-wrote; !errors.Is(err, ErrClosed) {
		t.Fatalf("owner's write = %v, want ErrClosed", err)
	}
	up.Abort()                           // idempotent
	up2 := mustBegin(t, m, c, "updater") // the owner handed the slot back
	if up2.slot != slot {
		t.Fatal("successor is not in the template's slot")
	}
	if err := rd.Commit(c); err != nil {
		t.Fatal(err)
	}
	if err := up2.Write(c, x, 8); err != nil {
		t.Fatal(err)
	}
	if err := up2.Commit(c); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.Aborts != 1 || st.Commits != 2 {
		t.Fatalf("stats %+v", st)
	}
	assertQuiescent(t, m)
}

// TestCheckInvariantsDetectsDirtyFreeSlot: the leak shape specific to a slot
// table — a free slot that still carries something of its last instance —
// is reported, beside the orphaned-slot and leaked-lock detectors of
// recovery_test.go.
func TestCheckInvariantsDetectsDirtyFreeSlot(t *testing.T) {
	s, x, _ := demoSet(t)
	m, _ := New(s)
	c := ctx(t)
	tx := mustBegin(t, m, c, "reader")
	if _, err := tx.Read(c, x); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(c); err != nil {
		t.Fatal(err)
	}
	for name, corrupt := range map[string]func(*slot) func(){
		"read set": func(s *slot) func() { s.job.DataRead.Add(x); return s.job.DataRead.Clear },
		"waiter": func(s *slot) func() {
			s.waiters = append(s.waiters, &s.wn)
			return func() { s.waiters = s.waiters[:0] }
		},
	} {
		m.mu.Lock()
		undo := corrupt(tx.slot)
		m.mu.Unlock()
		err := m.CheckInvariants()
		if err == nil || !strings.Contains(err.Error(), "free slot") {
			t.Errorf("%s left in a free slot: auditor said %v", name, err)
		}
		m.mu.Lock()
		undo()
		m.mu.Unlock()
	}
	assertQuiescent(t, m)
}
