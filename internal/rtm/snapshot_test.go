package rtm

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"pcpda/internal/db"
	"pcpda/internal/history"
	"pcpda/internal/rt"
)

func TestReadOnlyBasics(t *testing.T) {
	s, x, y := demoSet(t)
	m, _ := New(s)
	c := ctx(t)

	// Before any commit: initial state.
	ro, err := m.BeginReadOnly(c)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := ro.Read(c, x); err != nil || v != 0 {
		t.Fatalf("initial snapshot read = (%v, %v)", v, err)
	}
	if err := ro.Commit(c); err != nil {
		t.Fatal(err)
	}
	if err := ro.Commit(c); !errors.Is(err, ErrClosed) {
		t.Fatalf("double commit: %v, want ErrClosed", err)
	}
	if _, err := ro.Read(c, x); !errors.Is(err, ErrClosed) {
		t.Fatalf("read after commit: %v, want ErrClosed", err)
	}

	// Snapshot isolation: a transaction begun before a commit keeps
	// reading the old state; one begun after sees the new state.
	before, _ := m.BeginReadOnly(c)
	tx, err := m.Begin(c, "updater")
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(c, x, 42); err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(c, y, 43); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(c); err != nil {
		t.Fatal(err)
	}
	if v, err := before.Read(c, x); err != nil || v != 0 {
		t.Fatalf("pre-commit snapshot sees (%v, %v), want old state", v, err)
	}
	after, _ := m.BeginReadOnly(c)
	if v, err := after.Read(c, x); err != nil || v != 42 {
		t.Fatalf("post-commit snapshot sees (%v, %v), want 42", v, err)
	}
	before.Abort()
	after.Abort()
	after.Abort() // idempotent

	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.ROBegins != 3 || st.ROCommits != 1 || st.ROAborts != 2 {
		t.Fatalf("RO counters = begins %d commits %d aborts %d", st.ROBegins, st.ROCommits, st.ROAborts)
	}
}

// TestReadOnlyReadOnDeadContext: a snapshot read under a cancelled context
// fails with ErrCancelled wrapping the context's error and finishes the
// transaction as an abort, so a later Commit finds it closed.
func TestReadOnlyReadOnDeadContext(t *testing.T) {
	s, x, _ := demoSet(t)
	m, _ := New(s)
	dead, cancel := context.WithCancel(ctx(t))
	ro, err := m.BeginReadOnly(dead)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := ro.Read(dead, x); !errors.Is(err, ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("read on a dead context: %v, want ErrCancelled wrapping context.Canceled", err)
	}
	if st := m.Stats(); st.ROAborts != 1 || st.ROCommits != 0 {
		t.Fatalf("RO counters = aborts %d commits %d, want 1 and 0", st.ROAborts, st.ROCommits)
	}
	if err := ro.Commit(ctx(t)); !errors.Is(err, ErrClosed) {
		t.Fatalf("commit after the failed read: %v, want ErrClosed", err)
	}
}

// TestReadOnlyZeroLockTraffic is the isolation proof at the manager API:
// a read-only phase moves neither the logical clock (ticked by every
// mutex-held manager operation) nor the lock-table ops counter.
func TestReadOnlyZeroLockTraffic(t *testing.T) {
	s, x, y := demoSet(t)
	m, _ := New(s)
	c := ctx(t)
	tx, err := m.Begin(c, "updater")
	if err != nil {
		t.Fatal(err)
	}
	_ = tx.Write(c, x, 7)
	_ = tx.Write(c, y, 8)
	if err := tx.Commit(c); err != nil {
		t.Fatal(err)
	}

	before := m.Stats()
	const txns = 500
	for i := 0; i < txns; i++ {
		ro, err := m.BeginReadOnly(c)
		if err != nil {
			t.Fatal(err)
		}
		if v, err := ro.Read(c, x); err != nil || v != 7 {
			t.Fatalf("snapshot read = (%v, %v)", v, err)
		}
		if v, err := ro.Read(c, y); err != nil || v != 8 {
			t.Fatalf("snapshot read = (%v, %v)", v, err)
		}
		if err := ro.Commit(c); err != nil {
			t.Fatal(err)
		}
	}
	after := m.Stats()
	if d := after.Clock - before.Clock; d != 0 {
		t.Errorf("clock moved by %d during a pure read-only phase (mutex-held operations!)", d)
	}
	if d := after.LockTableOps - before.LockTableOps; d != 0 {
		t.Errorf("lock table mutated %d times during a pure read-only phase", d)
	}
	if d := after.Begins - before.Begins; d != 0 {
		t.Errorf("update begins moved by %d", d)
	}
	if d := after.ROCommits - before.ROCommits; d != txns {
		t.Errorf("ro commits moved by %d, want %d", d, txns)
	}
	if d := after.ROReads - before.ROReads; d != 2*txns {
		t.Errorf("ro reads moved by %d, want %d", d, 2*txns)
	}
}

// TestSnapshotReadsMatchHistory is the property test: every read-only
// transaction's observations are exactly the committed state at its
// snapshot tick, validated by history.CheckSnapshot after quiescence. Two
// inputs: one goroutine alternating a snapshot and a commit, and readers on
// goroutines of their own while the test's goroutine commits, so snapshots
// begin and read as commits install and lap the version rings. With
// concurrent readers a snapshot the ring bound evicted is the typed refusal,
// never a wrong answer, and has nothing to check; alone, a snapshot reads
// before the next commit, so any read error fails the test.
func TestSnapshotReadsMatchHistory(t *testing.T) {
	for _, readers := range []int{0, 3} {
		t.Run(fmt.Sprintf("readers=%d", readers), func(t *testing.T) {
			s, x, y := demoSet(t)
			m, _ := New(s)
			c := ctx(t)

			type obs struct {
				snap  rt.Ticks
				reads []history.SnapshotRead
			}
			var mu sync.Mutex
			var all []obs
			snapshot := func() error {
				ro, err := m.BeginReadOnly(c)
				if err != nil {
					return err
				}
				ob := obs{snap: ro.Snapshot()}
				for _, it := range []rt.Item{x, y} {
					_, ver, from, err := ro.ReadVersion(c, it)
					if readers > 0 && errors.Is(err, db.ErrSnapshotEvicted) {
						return nil
					}
					if err != nil {
						return err
					}
					ob.reads = append(ob.reads, history.SnapshotRead{Item: it, Ver: ver, From: from})
				}
				if err := ro.Commit(c); err != nil {
					return err
				}
				mu.Lock()
				all = append(all, ob)
				mu.Unlock()
				return nil
			}

			const commits = 40
			var done atomic.Bool
			var wg sync.WaitGroup
			errs := make(chan error, readers)
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 10*commits && !done.Load(); i++ {
						if err := snapshot(); err != nil {
							errs <- err
							return
						}
						runtime.Gosched()
					}
				}()
			}
			for i := 0; i < commits; i++ {
				if readers == 0 {
					if err := snapshot(); err != nil {
						t.Fatal(err)
					}
				}
				tx, err := m.Begin(c, "updater")
				if err != nil {
					t.Fatal(err)
				}
				_ = tx.Write(c, x, db.Value(i))
				_ = tx.Write(c, y, db.Value(i*2))
				if err := tx.Commit(c); err != nil {
					t.Fatal(err)
				}
				runtime.Gosched()
			}
			done.Store(true)
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			if len(all) == 0 {
				t.Fatal("no snapshot was checked")
			}
			hist := m.History()
			for _, ob := range all {
				if vs := hist.CheckSnapshot(ob.snap, ob.reads); len(vs) > 0 {
					t.Fatalf("snapshot at tick %d: %s", ob.snap, vs[0].Detail)
				}
			}
			if err := m.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSnapshotEvictionRetry pins a snapshot, hammers one item past the
// chain bound, and demands the pinned reader gets the typed retryable
// refusal while a fresh transaction succeeds — the retry-is-idempotent
// contract at the manager API.
func TestSnapshotEvictionRetry(t *testing.T) {
	s, x, y := demoSet(t)
	m, _ := New(s)
	c := ctx(t)

	tx, _ := m.Begin(c, "updater")
	_ = tx.Write(c, x, 1)
	_ = tx.Write(c, y, 1)
	if err := tx.Commit(c); err != nil {
		t.Fatal(err)
	}
	pinned, err := m.BeginReadOnly(c)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < db.ChainLimit+4; i++ {
		tx, err := m.Begin(c, "updater")
		if err != nil {
			t.Fatal(err)
		}
		_ = tx.Write(c, x, db.Value(100+i))
		_ = tx.Write(c, y, db.Value(100+i))
		if err := tx.Commit(c); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := pinned.Read(c, x); !errors.Is(err, db.ErrSnapshotEvicted) {
		t.Fatalf("pinned read past chain bound: %v, want ErrSnapshotEvicted", err)
	}
	// The handle auto-aborted; a fresh BEGIN (the retry) reads cleanly.
	retry, err := m.BeginReadOnly(c)
	if err != nil {
		t.Fatal(err)
	}
	v, err := retry.Read(c, x)
	if err != nil {
		t.Fatal(err)
	}
	if v != db.Value(100+db.ChainLimit+3) {
		t.Fatalf("retry read = %v, want %v", v, 100+db.ChainLimit+3)
	}
	if err := retry.Commit(c); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.ROEvictions != 1 {
		t.Fatalf("ROEvictions = %d, want 1", st.ROEvictions)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
