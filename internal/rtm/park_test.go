package rtm

import (
	"context"
	"errors"
	"testing"
	"time"

	"pcpda/internal/cc"
	"pcpda/internal/rt"
)

// blockedWrite is the park most tests here start from: the reader holds the
// read lock on x and the updater's write of x is parked behind it (LC1). The
// write's result arrives on wrote.
func blockedWrite(t *testing.T, m *Manager, c, writeCtx context.Context, x rt.Item) (rd, up *Txn, wrote chan error) {
	t.Helper()
	rd = mustBegin(t, m, c, "reader")
	if _, err := rd.Read(c, x); err != nil {
		t.Fatal(err)
	}
	up = mustBegin(t, m, c, "updater")
	wrote = make(chan error, 1)
	go func() { wrote <- up.Write(writeCtx, x, 7) }()
	waitBlocked(t, m, up)
	return rd, up, wrote
}

// waitParked polls until n wait nodes are registered.
func waitParked(t *testing.T, m *Manager, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); m.ParkedWaiters() != n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d waiters parked, want %d", m.ParkedWaiters(), n)
		}
	}
}

// TestEveryParkExitLeavesNoWaiter drives each way out of a wait — every
// return of park, parkBegin and sleep — and demands that nothing stays
// registered and no slot stays taken behind it. It is the dynamic form of
// the contract the waitnode analyzer used to check on the source: DESIGN.md
// §10 lists, for each exit, the deregistration whose removal fails which row
// here (or which older test). The two cycle rows fabricate the wait cycle in
// manager state, as cycle_test.go does: the locking conditions keep one from
// forming through the public API.
func TestEveryParkExitLeavesNoWaiter(t *testing.T) {
	rows := []struct {
		name string
		run  func(t *testing.T) *Manager
	}{
		{"woken", func(t *testing.T) *Manager {
			s, x, _ := demoSet(t)
			m, _ := New(s)
			c := ctx(t)
			rd, up, wrote := blockedWrite(t, m, c, c, x)
			if err := rd.Commit(c); err != nil {
				t.Fatal(err)
			}
			if err := <-wrote; err != nil {
				t.Fatalf("woken write = %v", err)
			}
			if err := up.Commit(c); err != nil {
				t.Fatal(err)
			}
			return m
		}},
		{"self-victim of a cycle", func(t *testing.T) *Manager {
			s, _, _ := cycleSet()
			m, _ := New(s)
			c := ctx(t)
			th, tl := mustBegin(t, m, c, "TH"), mustBegin(t, m, c, "TL")
			m.mu.Lock()
			th.slot.job.Status, th.slot.job.Blockers = cc.Blocked, []rt.JobID{tl.ID()}
			tl.slot.job.Status, tl.slot.job.Blockers = cc.Blocked, []rt.JobID{th.ID()}
			err := m.park(c, tl, waitLock, true) // the lower priority of the two: its own victim
			th.slot.job.Status, th.slot.job.Blockers = cc.Ready, nil
			m.mu.Unlock()
			if !errors.Is(err, ErrAborted) {
				t.Fatalf("self-victim's park = %v, want ErrAborted", err)
			}
			th.Abort()
			return m
		}},
		{"flagged victim", func(t *testing.T) *Manager {
			s, x, y := cycleSet()
			m, _ := New(s)
			c := ctx(t)
			tl := mustBegin(t, m, c, "TL")
			if err := tl.Write(c, x, 1); err != nil {
				t.Fatal(err)
			}
			th := mustBegin(t, m, c, "TH")
			if _, err := th.Read(c, x); err != nil {
				t.Fatal(err)
			}
			read := make(chan error, 1)
			go func() { _, err := tl.Read(c, y); read <- err }() // ceiling-blocked behind TH
			waitBlocked(t, m, tl)
			m.mu.Lock()
			th.slot.job.Status, th.slot.job.Blockers = cc.Blocked, []rt.JobID{tl.ID()}
			err := m.park(c, th, waitLock, true) // flags TL, sleeps, is woken by TL's teardown: a second "woken"
			m.mu.Unlock()
			if err != nil {
				t.Fatalf("survivor's park = %v", err)
			}
			if err := <-read; !errors.Is(err, ErrAborted) {
				t.Fatalf("flagged victim's read = %v, want ErrAborted", err)
			}
			th.Abort()
			return m
		}},
		{"foreign Abort while parked", func(t *testing.T) *Manager {
			s, x, _ := demoSet(t)
			m, _ := New(s)
			c := ctx(t)
			rd, up, wrote := blockedWrite(t, m, c, c, x)
			up.Abort()
			if err := <-wrote; !errors.Is(err, ErrClosed) {
				t.Fatalf("owner's write = %v, want ErrClosed", err)
			}
			rd.Abort()
			return m
		}},
		{"context cancelled", func(t *testing.T) *Manager {
			s, x, _ := demoSet(t)
			m, _ := New(s)
			c := ctx(t)
			cshort, cancel := context.WithCancel(c)
			rd, _, wrote := blockedWrite(t, m, c, cshort, x)
			cancel()
			if err := <-wrote; !errors.Is(err, ErrCancelled) {
				t.Fatalf("cancelled write = %v, want ErrCancelled", err)
			}
			rd.Abort()
			return m
		}},
		{"Begin cancelled", func(t *testing.T) *Manager {
			s, _, _ := demoSet(t)
			m, _ := New(s)
			c := ctx(t)
			first := mustBegin(t, m, c, "reader")
			cshort, cancel := context.WithCancel(c)
			began := make(chan error, 1)
			go func() { _, err := m.Begin(cshort, "reader"); began <- err }()
			waitParked(t, m, 1)
			cancel()
			if err := <-began; !errors.Is(err, ErrCancelled) {
				t.Fatalf("cancelled Begin = %v, want ErrCancelled", err)
			}
			first.Abort()
			return m
		}},
		{"Begin woken", func(t *testing.T) *Manager {
			s, _, _ := demoSet(t)
			m, _ := New(s)
			c := ctx(t)
			first := mustBegin(t, m, c, "reader")
			second := make(chan *Txn, 1)
			go func() { tx, _ := m.Begin(c, "reader"); second <- tx }()
			waitParked(t, m, 1)
			first.Abort()
			tx := <-second
			if tx == nil {
				t.Fatal("woken Begin failed")
			}
			tx.Abort()
			return m
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			assertQuiescent(t, row.run(t))
		})
	}
}
