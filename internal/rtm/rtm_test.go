package rtm

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"pcpda/internal/db"
	"pcpda/internal/rt"
	"pcpda/internal/txn"
	"pcpda/internal/workload"
)

// demoSet: reader (high priority) reads x and y; updater (low priority)
// writes x and y — the Example 3 shape.
func demoSet(t *testing.T) (*txn.Set, rt.Item, rt.Item) {
	t.Helper()
	s := txn.NewSet("live")
	x := s.Catalog.Intern("x")
	y := s.Catalog.Intern("y")
	s.Add(&txn.Template{Name: "reader", Steps: []txn.Step{txn.Read(x), txn.Read(y)}})
	s.Add(&txn.Template{Name: "updater", Steps: []txn.Step{txn.Write(x), txn.Write(y)}})
	s.AssignByIndex()
	return s, x, y
}

func ctx(t *testing.T) context.Context {
	t.Helper()
	c, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	return c
}

func TestSingleTransactionLifecycle(t *testing.T) {
	s, x, y := demoSet(t)
	m, err := New(s)
	if err != nil {
		t.Fatal(err)
	}
	c := ctx(t)
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
	// Uncommitted writes are invisible outside the transaction.
	if v := m.ReadCommitted(x); v != 0 {
		t.Fatalf("dirty value visible: %v", v)
	}
	if err := tx.Commit(c); err != nil {
		t.Fatal(err)
	}
	if v := m.ReadCommitted(x); v != 42 {
		t.Fatalf("committed value = %v", v)
	}
	// Handle is closed now.
	if err := tx.Write(c, x, 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed handle write: %v", err)
	}
	if err := tx.Commit(c); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed handle commit: %v", err)
	}
	rep := m.History().Check()
	if !rep.Serializable || !rep.CommitOrderOK {
		t.Fatalf("history: %+v", rep.Violations)
	}
}

func TestReadOwnWrite(t *testing.T) {
	s, x, _ := demoSet(t)
	m, _ := New(s)
	c := ctx(t)
	tx, _ := m.Begin(c, "updater")
	if err := tx.Write(c, x, 7); err != nil {
		t.Fatal(err)
	}
	// updater's declared sets do not include reads of x; reading an item in
	// the WRITE set is allowed (read-own-write) per the API contract.
	v, err := tx.Read(c, x)
	if err != nil {
		t.Fatal(err)
	}
	if v != 7 {
		t.Fatalf("own write = %v", v)
	}
	if err := tx.Commit(c); err != nil {
		t.Fatal(err)
	}
}

func TestUndeclaredAccessRejected(t *testing.T) {
	s, x, _ := demoSet(t)
	m, _ := New(s)
	c := ctx(t)
	tx, _ := m.Begin(c, "reader")
	if err := tx.Write(c, x, 1); err == nil {
		t.Fatal("reader wrote an undeclared item")
	}
	z := s.Catalog.Intern("z")
	if _, err := tx.Read(c, z); err == nil {
		t.Fatal("reader read an undeclared item")
	}
	tx.Abort()
}

func TestUnknownTemplate(t *testing.T) {
	s, _, _ := demoSet(t)
	m, _ := New(s)
	if _, err := m.Begin(ctx(t), "nope"); err == nil {
		t.Fatal("unknown template accepted")
	}
}

func TestBeginSerializesPerTemplate(t *testing.T) {
	s, x, _ := demoSet(t)
	m, _ := New(s)
	c := ctx(t)
	first, _ := m.Begin(c, "reader")
	second := make(chan *Txn, 1)
	go func() {
		tx, err := m.Begin(c, "reader")
		if err != nil {
			t.Error(err)
		}
		second <- tx
	}()
	waitParked(t, m, 1) // the second Begin waits for the slot
	select {
	case <-second:
		t.Fatal("second instance began while the first was live")
	default:
	}
	if _, err := first.Read(c, x); err != nil {
		t.Fatal(err)
	}
	if err := first.Commit(c); err != nil {
		t.Fatal(err)
	}
	tx := <-second
	tx.Abort()
}

func TestContextCancellationWhileBlocked(t *testing.T) {
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
	if err := <-wrote; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled write returned %v", err)
	}
	// The cancelled transaction is gone; the reader can still commit and a
	// fresh updater instance can run.
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
}

func TestAbortDiscardsEverything(t *testing.T) {
	s, x, _ := demoSet(t)
	m, _ := New(s)
	c := ctx(t)
	up, _ := m.Begin(c, "updater")
	if err := up.Write(c, x, 50); err != nil {
		t.Fatal(err)
	}
	up.Abort()
	up.Abort() // idempotent
	if v := m.ReadCommitted(x); v != 0 {
		t.Fatalf("aborted write leaked: %v", v)
	}
	// A new instance may begin immediately.
	up2, err := m.Begin(c, "updater")
	if err != nil {
		t.Fatal(err)
	}
	up2.Abort()
	rep := m.History().Check()
	if !rep.Serializable {
		t.Fatalf("history: %+v", rep.Violations)
	}
}

// TestHammer runs randomized concurrent transactions under -race: every
// goroutine repeatedly executes a random registered transaction type,
// reading and writing its declared items in random order. Assertions:
// everything terminates (deadline), the history is serializable, commits
// follow the commit-order property, and the final store state matches the
// last committed writers.
func TestHammer(t *testing.T) {
	set, err := workload.Generate(workload.Config{
		N: 6, Items: 8, Utilization: 0.5,
		PeriodMin: 50, PeriodMax: 500,
		OpsMin: 2, OpsMax: 4, WriteProb: 0.5, Seed: 424242,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(set)
	if err != nil {
		t.Fatal(err)
	}
	c, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	const workers = 6
	const iters = 40
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				tmpl := set.Templates[rng.Intn(len(set.Templates))]
				if err := runOnce(c, m, rng, tmpl); err != nil {
					errs <- err
					return
				}
			}
		}(int64(w + 1))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	rep := m.History().Check()
	if !rep.Serializable {
		t.Fatalf("hammer history not serializable: %v", rep.Violations)
	}
	if !rep.CommitOrderOK {
		t.Fatalf("hammer history violates commit order: %v", rep.Violations)
	}
	if rep.CommittedRuns == 0 {
		t.Fatal("nothing committed")
	}
	for it, want := range m.History().LastWriters() {
		if got := m.ReadCommitted(it); got != db.SyntheticValue(want, it) {
			t.Fatalf("item %d final value %v, want from run %d", it, got, want)
		}
	}
	t.Logf("hammer: %d commits, %d cycle aborts", rep.CommittedRuns, m.Stats().CycleAborts)
}

// runOnce executes one live transaction over tmpl's declared access sets in
// a random interleaved order. ErrAborted and context errors on the Begin
// race are tolerated (retried/skipped); other errors propagate.
func runOnce(c context.Context, m *Manager, rng *rand.Rand, tmpl *txn.Template) error {
	tx, err := m.Begin(c, tmpl.Name)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			return err
		}
		return err
	}
	ops := make([]txn.Step, 0, 8)
	for _, x := range tmpl.ReadSet().Items() {
		ops = append(ops, txn.Read(x))
	}
	for _, x := range tmpl.WriteSet().Items() {
		ops = append(ops, txn.Write(x))
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	for _, op := range ops {
		var err error
		if op.Kind == txn.ReadStep {
			_, err = tx.Read(c, op.Item)
		} else {
			err = tx.Write(c, op.Item, db.SyntheticValue(tx.run(), op.Item))
		}
		if err != nil {
			if errors.Is(err, ErrAborted) {
				return nil // victim of cycle resolution: acceptable, retried next iter
			}
			tx.Abort()
			return err
		}
	}
	if err := tx.Commit(c); err != nil {
		if errors.Is(err, ErrAborted) {
			return nil
		}
		return err
	}
	return nil
}

func TestManagerRejectsInvalidSet(t *testing.T) {
	s := txn.NewSet("bad")
	if _, err := New(s); err == nil {
		t.Fatal("empty set accepted")
	}
}

func TestStatsCounters(t *testing.T) {
	s, x, _ := demoSet(t)
	m, _ := New(s)
	c := ctx(t)

	if st := m.Stats(); !reflect.DeepEqual(st, Stats{}) {
		t.Fatalf("fresh manager stats = %+v", st)
	}

	rd, _ := m.Begin(c, "reader")
	if _, err := rd.Read(c, x); err != nil {
		t.Fatal(err)
	}
	up, _ := m.Begin(c, "updater")
	if st := m.Stats(); st.Begins != 2 || st.Live != 2 {
		t.Fatalf("mid stats = %+v", st)
	}

	// Blocked write: one lock wait.
	wrote := make(chan error, 1)
	go func() { wrote <- up.Write(c, x, 1) }()
	waitBlocked(t, m, up)
	if st := m.Stats(); st.LockWaits < 1 {
		t.Fatalf("lock waits = %+v", st)
	}
	if err := rd.Commit(c); err != nil {
		t.Fatal(err)
	}
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}

	// Commit wait: a new reader holds a stale read of x.
	rd2, _ := m.Begin(c, "reader")
	if _, err := rd2.Read(c, x); err != nil {
		t.Fatal(err)
	}
	upDone := make(chan error, 1)
	go func() { upDone <- up.Commit(c) }()
	waitBlocked(t, m, up)
	if st := m.Stats(); st.CommitWaits < 1 {
		t.Fatalf("commit waits = %+v", st)
	}
	rd2.Abort()
	if err := <-upDone; err != nil {
		t.Fatal(err)
	}

	st := m.Stats()
	if st.Commits != 2 || st.Aborts != 1 || st.CycleAborts != 0 || st.Live != 0 {
		t.Fatalf("final stats = %+v", st)
	}
}
