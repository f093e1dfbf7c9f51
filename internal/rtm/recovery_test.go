package rtm

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"pcpda/internal/fault"
	"pcpda/internal/rt"
)

// assertClean asserts the manager has exactly `live` live transactions and
// no leaked internal state.
func assertClean(t *testing.T, m *Manager, live int) {
	t.Helper()
	if st := m.Stats(); st.Live != live {
		t.Fatalf("live = %d, want %d (stats %+v)", st.Live, live, st)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCancelledBlockedWriteLeavesNoState(t *testing.T) {
	s, x, _ := demoSet(t)
	m, _ := New(s)
	c := ctx(t)

	rd, _ := m.Begin(c, "reader")
	if _, err := rd.Read(c, x); err != nil {
		t.Fatal(err)
	}
	up, _ := m.Begin(c, "updater")
	cshort, cancel := context.WithCancel(c)
	wrote := make(chan error, 1)
	go func() { wrote <- up.Write(cshort, x, 1) }()
	waitBlocked(t, m, up)
	cancel()
	err := <-wrote
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("cancelled write = %v, want ErrCancelled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled write %v must also match context.Canceled", err)
	}

	// The cancelled transaction left nothing behind: no locks, no live
	// entry, no template slot — exactly as if Abort() had been called.
	m.mu.Lock()
	var held []rt.Item
	keep := func(x rt.Item, o rt.JobID) {
		if o == up.slot.job.ID {
			held = append(held, x)
		}
	}
	m.locks.EachReadLock(keep)
	m.locks.EachWriteLock(keep)
	m.mu.Unlock()
	if len(held) != 0 {
		t.Fatalf("cancelled transaction still holds locks on %v", held)
	}
	assertClean(t, m, 1) // only the reader remains
	st := m.Stats()
	if st.Cancellations != 1 {
		t.Fatalf("Cancellations = %d, want 1 (stats %+v)", st.Cancellations, st)
	}

	// A later explicit Abort is an idempotent no-op.
	up.Abort()
	if st2 := m.Stats(); st2.Aborts != st.Aborts {
		t.Fatalf("Abort after cancellation double-counted: %+v", st2)
	}

	// The template slot is free: a fresh updater can run to completion.
	if err := rd.Commit(c); err != nil {
		t.Fatal(err)
	}
	up2, err := m.Begin(c, "updater")
	if err != nil {
		t.Fatal(err)
	}
	if err := up2.Write(c, x, 2); err != nil {
		t.Fatal(err)
	}
	if err := up2.Commit(c); err != nil {
		t.Fatal(err)
	}
	assertClean(t, m, 0)
}

func TestCancelledBeforeOperation(t *testing.T) {
	s, x, _ := demoSet(t)
	m, _ := New(s)
	c := ctx(t)
	tx, _ := m.Begin(c, "reader")
	dead, cancel := context.WithCancel(c)
	cancel()
	if _, err := tx.Read(dead, x); !errors.Is(err, ErrCancelled) {
		t.Fatalf("read on dead context = %v", err)
	}
	assertClean(t, m, 0)
	// The handle is gone; further use reports ErrClosed.
	if _, err := tx.Read(c, x); !errors.Is(err, ErrClosed) {
		t.Fatalf("read after cancellation cleanup = %v", err)
	}
}

func TestBeginOnDeadContextRefuses(t *testing.T) {
	s, _, _ := demoSet(t)
	m, _ := New(s)
	dead, cancel := context.WithCancel(ctx(t))
	cancel()
	tx, err := m.Begin(dead, "reader")
	if tx != nil || !errors.Is(err, ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("Begin on dead context = %v, %v", tx, err)
	}
	// Nothing was registered: no live transaction, slot still free.
	assertClean(t, m, 0)
	if tx, err := m.Begin(ctx(t), "reader"); err != nil || tx == nil {
		t.Fatalf("slot should be free after refused Begin: %v", err)
	}
}

func TestContextDeadlineMapsToCancelled(t *testing.T) {
	s, x, _ := demoSet(t)
	m, _ := New(s)
	c := ctx(t)
	rd, _ := m.Begin(c, "reader")
	if _, err := rd.Read(c, x); err != nil {
		t.Fatal(err)
	}
	up, _ := m.Begin(c, "updater")
	cshort, cancel := context.WithTimeout(c, 10*time.Millisecond)
	defer cancel()
	err := up.Write(cshort, x, 1)
	if !errors.Is(err, ErrCancelled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired write = %v, want ErrCancelled wrapping DeadlineExceeded", err)
	}
	rd.Abort()
	if v := m.ReadCommitted(x); v != 0 {
		t.Fatalf("expired write leaked: %v", v)
	}
	assertClean(t, m, 0)
	up.Abort() // idempotent after the self-cleaning failure
	assertClean(t, m, 0)
}

func TestFirmDeadlineMissed(t *testing.T) {
	// A firm deadline is the caller's context deadline: writes made inside
	// it stay private, and the commit that arrives after it is refused and
	// discards them all.
	s, x, y := demoSet(t)
	m, _ := New(s)
	c, cancel := context.WithTimeout(ctx(t), 50*time.Millisecond)
	defer cancel()
	up, err := m.Begin(c, "updater")
	if err != nil {
		t.Fatal(err)
	}
	if err := up.Write(c, x, 1); err != nil {
		t.Fatal(err) // first write lands inside the deadline
	}
	if err := up.Write(c, y, 2); err != nil {
		t.Fatal(err)
	}
	<-c.Done()
	err = up.Commit(c)
	if !errors.Is(err, ErrCancelled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("commit past firm deadline = %v, want ErrCancelled wrapping DeadlineExceeded", err)
	}
	if v := m.ReadCommitted(x); v != 0 {
		t.Fatalf("deadline-aborted write leaked: %v", v)
	}
	if v := m.ReadCommitted(y); v != 0 {
		t.Fatalf("deadline-aborted write leaked: %v", v)
	}
	assertClean(t, m, 0)
	if st := m.Stats(); st.Cancellations != 1 || st.Commits != 0 {
		t.Fatalf("Cancellations = %d, Commits = %d (stats %+v)", st.Cancellations, st.Commits, st)
	}
	up.Abort() // idempotent after the self-cleaning failure
	assertClean(t, m, 0)
	if st := m.Stats(); st.Cancellations != 1 {
		t.Fatalf("idempotent Abort recounted: %+v", st)
	}
}

func TestInjectedForceAbortSelfCleans(t *testing.T) {
	s, x, _ := demoSet(t)
	m, err := NewWithOptions(s, Options{
		Injector: fault.Func(func(p fault.Point, _ string) fault.Action {
			if p == fault.LockRequest {
				return fault.ForceAbort
			}
			return fault.Proceed
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	c := ctx(t)
	tx, err := m.Begin(c, "reader")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Read(c, x); !errors.Is(err, ErrAborted) {
		t.Fatalf("injected abort = %v, want ErrAborted", err)
	}
	assertClean(t, m, 0)
	st := m.Stats()
	if st.InjectedFaults != 1 || st.Aborts != 1 {
		t.Fatalf("stats after injected abort: %+v", st)
	}
	tx.Abort() // idempotent
	if st2 := m.Stats(); st2.Aborts != st.Aborts {
		t.Fatalf("double-counted abort: %+v", st2)
	}
}

func TestInjectedCancelAtCommitInstall(t *testing.T) {
	s, x, _ := demoSet(t)
	m, err := NewWithOptions(s, Options{
		Injector: fault.Func(func(p fault.Point, _ string) fault.Action {
			if p == fault.CommitInstall {
				return fault.ForceCancel
			}
			return fault.Proceed
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	c := ctx(t)
	tx, _ := m.Begin(c, "updater")
	if err := tx.Write(c, x, 42); err != nil {
		t.Fatal(err)
	}
	err = tx.Commit(c)
	if !errors.Is(err, ErrCancelled) || !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("injected cancel = %v, want ErrCancelled wrapping fault.ErrInjected", err)
	}
	if v := m.ReadCommitted(x); v != 0 {
		t.Fatalf("cancelled commit installed data: %v", v)
	}
	assertClean(t, m, 0)
}

func TestInjectedWakeupAndDelayAreHarmless(t *testing.T) {
	s, x, y := demoSet(t)
	m, err := NewWithOptions(s, Options{
		Injector: fault.Func(func(p fault.Point, _ string) fault.Action {
			switch p {
			case fault.BlockWait, fault.CommitWait:
				return fault.Wakeup
			case fault.LockRequest, fault.LockGrant, fault.CommitEntry:
				return fault.Delay
			}
			return fault.Proceed
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	c := ctx(t)
	tx, _ := m.Begin(c, "updater")
	if err := tx.Write(c, x, 1); err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(c, y, 2); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(c); err != nil {
		t.Fatal(err)
	}
	if v := m.ReadCommitted(x); v != 1 {
		t.Fatalf("committed value = %v", v)
	}
	assertClean(t, m, 0)
	if st := m.Stats(); st.InjectedFaults == 0 {
		t.Fatalf("no faults recorded: %+v", st)
	}
}

func TestExecRetriesInjectedAborts(t *testing.T) {
	s, x, _ := demoSet(t)
	fails := 3
	m, err := NewWithOptions(s, Options{
		Injector: fault.Func(func(p fault.Point, _ string) fault.Action {
			if p == fault.BeginTxn && fails > 0 {
				fails--
				return fault.ForceAbort
			}
			return fault.Proceed
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	c := ctx(t)
	err = m.Exec(c, "updater", func(tx *Txn) error {
		return tx.Write(c, x, 7)
	})
	if err != nil {
		t.Fatal(err)
	}
	if v := m.ReadCommitted(x); v != 7 {
		t.Fatalf("Exec result = %v", v)
	}
	st := m.Stats()
	if st.Retries != 3 {
		t.Fatalf("Retries = %d, want 3 (stats %+v)", st.Retries, st)
	}
	assertClean(t, m, 0)
}

func TestExecGivesUpAfterBoundedAttempts(t *testing.T) {
	s, _, _ := demoSet(t)
	m, err := NewWithOptions(s, Options{
		Injector: fault.Func(func(p fault.Point, _ string) fault.Action {
			if p == fault.BeginTxn {
				return fault.ForceAbort
			}
			return fault.Proceed
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	c := ctx(t)
	err = m.Exec(c, "updater", func(tx *Txn) error { return nil })
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("Exec under permanent sacrifice = %v, want wrapped ErrAborted", err)
	}
	if st := m.Stats(); st.Retries != execMaxAttempts-1 {
		t.Fatalf("Retries = %d, want %d", st.Retries, execMaxAttempts-1)
	}
	assertClean(t, m, 0)
}

func TestExecPropagatesCallerErrors(t *testing.T) {
	s, x, _ := demoSet(t)
	m, _ := New(s)
	c := ctx(t)
	boom := errors.New("boom")
	if err := m.Exec(c, "updater", func(tx *Txn) error {
		if err := tx.Write(c, x, 1); err != nil {
			return err
		}
		return boom
	}); !errors.Is(err, boom) {
		t.Fatalf("Exec = %v, want the caller's error", err)
	}
	if v := m.ReadCommitted(x); v != 0 {
		t.Fatalf("failed Exec leaked a write: %v", v)
	}
	if st := m.Stats(); st.Retries != 0 {
		t.Fatalf("caller error must not be retried: %+v", st)
	}
	assertClean(t, m, 0)
}

// TestExecHonoursContext: a context that is dead when Exec begins, or that
// dies while Exec backs off from a sacrifice, ends Exec with ErrCancelled
// wrapping context.Canceled — the sentinel contract of every other exit.
func TestExecHonoursContext(t *testing.T) {
	rows := []struct {
		name string
		opts func(cancel context.CancelFunc) Options
	}{
		{"dead at Begin", func(cancel context.CancelFunc) Options {
			cancel()
			return Options{}
		}},
		{"dies in backoff", func(cancel context.CancelFunc) Options {
			return Options{Injector: fault.Func(func(p fault.Point, _ string) fault.Action {
				if p == fault.BeginTxn {
					cancel()
					return fault.ForceAbort
				}
				return fault.Proceed
			})}
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			s, _, _ := demoSet(t)
			c, cancel := context.WithCancel(context.Background())
			defer cancel()
			m, _ := NewWithOptions(s, row.opts(cancel))
			err := m.Exec(c, "updater", func(tx *Txn) error { return nil })
			if !errors.Is(err, ErrCancelled) || !errors.Is(err, context.Canceled) {
				t.Fatalf("Exec = %v, want ErrCancelled wrapping context.Canceled", err)
			}
			assertClean(t, m, 0)
		})
	}
}

func TestCheckInvariantsDetectsLeakedLock(t *testing.T) {
	s, x, _ := demoSet(t)
	m, _ := New(s)
	// Corrupt the table directly: a lock held by a job that does not exist.
	m.mu.Lock()
	m.locks.Acquire(999, x, rt.Read)
	m.mu.Unlock()
	if err := m.CheckInvariants(); err == nil {
		t.Fatal("auditor missed a leaked lock")
	}
	m.mu.Lock()
	m.locks.Release(999, x, rt.Read)
	m.mu.Unlock()
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckInvariantsDetectsUnrecordedReadLock: a live transaction's read
// lock on an item it declared, with no DataRead entry behind it. The lock
// raises the item's ceiling for everyone, yet the transaction has not read
// anything the commit guard or the history can see; the manager's own
// strict-2PL checks look the other way (from DataRead to the lock), so only
// the audit shared with the kernel reports it.
func TestCheckInvariantsDetectsUnrecordedReadLock(t *testing.T) {
	s, x, _ := demoSet(t)
	m, _ := New(s)
	tx := mustBegin(t, m, ctx(t), "reader")
	m.mu.Lock()
	m.locks.Acquire(tx.ID(), x, rt.Read)
	m.mu.Unlock()
	err := m.CheckInvariants()
	if err == nil || !strings.Contains(err.Error(), "without recording the read") {
		t.Fatalf("auditor missed a read lock with no DataRead entry: %v", err)
	}
	tx.Abort()
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckInvariantsDetectsVersionByLiveRun: a version installed for a
// transaction that is still live (versions go in only at commit) is
// reported, and so is the snapshot horizon left behind the ring.
func TestCheckInvariantsDetectsVersionByLiveRun(t *testing.T) {
	s, _, y := demoSet(t)
	m, _ := New(s)
	tx := mustBegin(t, m, ctx(t), "updater")
	m.mu.Lock()
	m.clock++
	m.store.InstallVersioned(tx.slot.job.Run, y, 1, int64(m.clock))
	m.mu.Unlock()
	err := m.CheckInvariants()
	if err == nil || !strings.Contains(err.Error(), "of still-live job") || !strings.Contains(err.Error(), "not covered by published snapshot tick") {
		t.Fatalf("auditor missed a version by a live run past the horizon: %v", err)
	}
}

func TestCheckInvariantsDetectsOrphanedSlot(t *testing.T) {
	s, _, _ := demoSet(t)
	m, _ := New(s)
	c := ctx(t)
	tx, _ := m.Begin(c, "reader")
	// Corrupt the live structures: drop the instance from the live list but
	// keep its slot taken, the exact leak shape the self-cleaning paths must
	// prevent.
	m.mu.Lock()
	m.active = m.active[:0]
	m.mu.Unlock()
	err := m.CheckInvariants()
	if err == nil || !strings.Contains(err.Error(), "orphaned slot") {
		t.Fatalf("auditor missed an orphaned slot: %v", err)
	}
	// The reverse leak: the slot freed while the instance is still listed.
	m.mu.Lock()
	m.active = append(m.active, &tx.slot.job)
	tx.slot.cur = nil
	m.mu.Unlock()
	err = m.CheckInvariants()
	if err == nil || !strings.Contains(err.Error(), "sits in a free slot") {
		t.Fatalf("auditor missed a listed instance in a free slot: %v", err)
	}
}
