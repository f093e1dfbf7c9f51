package rtm

import (
	"context"
	"math"
	"runtime"
	"testing"

	"pcpda/internal/history"
	"pcpda/internal/rt"
	"pcpda/internal/testenv"
	"pcpda/internal/txn"
)

// windows is how many times mallocsPer measures.
const windows = 5

// mallocsPer runs fn n times in each of windows windows and returns the heap
// objects and bytes allocated per run in the quietest one. The counters are
// process-wide, so goroutines fn hands work to are counted, and so is
// whatever goroutines left running by earlier tests allocate meanwhile; the
// minimum over the windows drops the latter.
func mallocsPer(n int, fn func()) (objects, bytes float64) {
	objects, bytes = math.Inf(1), math.Inf(1)
	for range windows {
		var a, b runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&a)
		for i := 0; i < n; i++ {
			fn()
		}
		runtime.ReadMemStats(&b)
		objects = min(objects, float64(b.Mallocs-a.Mallocs)/float64(n))
		bytes = min(bytes, float64(b.TotalAlloc-a.TotalAlloc)/float64(n))
	}
	return objects, bytes
}

// TestManagerAllocBudget pins what a transaction costs the heap on a warm
// manager: its 24-byte handle, made before Begin takes the mutex — nothing
// for the job, the wait node, the waiter lists, the history or the version
// its write installs (a ring slot overwritten in place) — nothing but the
// handle for a read-only snapshot, and nothing more when an operation parks
// and resumes on the way.
func TestManagerAllocBudget(t *testing.T) {
	if testenv.Race {
		t.Skip("the race detector's runtime allocates")
	}
	s, x, y := demoSet(t)
	m, err := New(s)
	if err != nil {
		t.Fatal(err)
	}
	c := context.Background()
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	// updater: Begin, Read(x) (its own write set is readable), Write(y), Commit.
	serial := func() {
		tx, err := m.Begin(c, "updater")
		must(err)
		_, err = tx.Read(c, x)
		must(err)
		must(tx.Write(c, y, 1))
		must(tx.Commit(c))
	}
	for m.Stats().HistoryRetained < history.RingCap { // the ring stops growing once full
		serial()
	}
	objects, bytes := mallocsPer(2000, serial)
	t.Logf("Begin/Read/Write/Commit: %.2f objects, %.1f bytes", objects, bytes)
	if objects > 1 || bytes > 24 {
		t.Errorf("one transaction allocates %.2f objects / %.1f bytes, budget 1 / 24", objects, bytes)
	}

	// A read-only snapshot transaction is its handle and nothing else: the
	// reads (ROTxn.Read over Store.ReadAt) read the version ring in place.
	snapshot := func() {
		ro, err := m.BeginReadOnly(c)
		must(err)
		_, err = ro.Read(c, x)
		must(err)
		_, err = ro.Read(c, y)
		must(err)
		must(ro.Commit(c))
	}
	objects, _ = mallocsPer(2000, snapshot)
	t.Logf("BeginReadOnly/Read/Read/Commit: %.2f objects", objects)
	if objects > 1 {
		t.Errorf("one read-only transaction allocates %.2f objects, budget 1: a snapshot read must add none", objects)
	}

	// A granted Read under a raised ceiling: the reader's lock on x stands
	// (Wceil(x) is the updater's priority, not the dummy level), so the
	// updater's Read of y walks a foreign holder, finds T* = the reader and
	// passes LC4 after looking T*'s write set up — every step in place.
	rd, err := m.Begin(c, "reader")
	must(err)
	_, err = rd.Read(c, x)
	must(err)
	up, err := m.Begin(c, "updater")
	must(err)
	m.mu.Lock()
	sysceil, tstar := m.locks.Ceiling(up.id, txn.ComputeCeilings(s).WceilTable(), nil, nil)
	m.mu.Unlock()
	if sysceil.IsDummy() || len(tstar) != 1 || tstar[0] != rd.id {
		t.Fatalf("the updater's Sysceil = %v with T* = %v, want a raised ceiling held by the reader (job %d)", sysceil, tstar, rd.id)
	}
	grantedRead := func(tx *Txn, item rt.Item) func() {
		return func() {
			_, err := tx.Read(c, item)
			must(err)
		}
	}
	grantedRead(up, y)() // warm: the first grant takes the lock
	if allocs := testing.AllocsPerRun(200, grantedRead(up, y)); allocs != 0 {
		t.Errorf("a granted Read under a raised ceiling (T* non-empty) allocates %v, want 0", allocs)
	}
	up.Abort()
	rd.Abort()

	// The same with all eight slots of an 8-template set live (the largest
	// shipped set): the walk passes seven foreign holder records.
	full, top, item := allSlotsLive(t, 8)
	for full.Stats().HistoryRetained < history.RingCap {
		grantedRead(top, item)()
	}
	if allocs := testing.AllocsPerRun(200, grantedRead(top, item)); allocs != 0 {
		t.Errorf("a granted Read with eight slots live allocates %v, want 0", allocs)
	}
	if waits := full.Stats().LockWaits + m.Stats().LockWaits; waits != 0 {
		t.Errorf("%d lock waits: a priced Read was denied, not granted", waits)
	}

	// The same work with a park in it: the updater writes x, the reader reads
	// the pre-commit version, the updater's Commit parks on the stale reader
	// and resumes when the reader commits. A standing goroutine does the
	// commit, so the cycle itself allocates nothing.
	commits := make(chan *Txn)
	committed := make(chan error)
	go func() {
		for tx := range commits {
			committed <- tx.Commit(c)
		}
	}()
	defer close(commits)
	overlapped := func() {
		up, err := m.Begin(c, "updater")
		must(err)
		must(up.Write(c, x, 2))
		rd, err := m.Begin(c, "reader")
		must(err)
		_, err = rd.Read(c, x)
		must(err)
		commits <- up
		for m.ParkedWaiters() == 0 {
			runtime.Gosched()
		}
		must(rd.Commit(c))
		must(<-committed)
	}
	for i := 0; i < 100; i++ {
		overlapped()
	}
	waits := m.Stats().CommitWaits
	objects, _ = mallocsPer(500, overlapped)
	if got := m.Stats().CommitWaits - waits; got != windows*500 {
		t.Fatalf("%d of %d cycles parked", got, windows*500)
	}
	t.Logf("two transactions with a commit wait between them: %.2f objects", objects)
	if objects > 2.1 { // two handles; the slack is the runtime's own (sudogs)
		t.Errorf("a cycle with a park allocates %.2f objects, budget 2: parking must add none", objects)
	}
}
