package lock

import (
	"fmt"
	"strings"
	"testing"

	"pcpda/internal/rt"
	"pcpda/internal/testenv"
)

const (
	j1 = rt.JobID(1)
	j2 = rt.JobID(2)
	j3 = rt.JobID(3)
)

const (
	x = rt.Item(0)
	y = rt.Item(1)
	z = rt.Item(2)
)

func TestAcquireHoldRelease(t *testing.T) {
	tb := NewTable()
	tb.Acquire(j1, x, rt.Read)
	if !tb.HoldsRead(j1, x) || tb.HoldsWrite(j1, x) {
		t.Fatal("read lock recorded wrongly")
	}
	if tb.HoldsRead(j2, x) || tb.HoldsWrite(j2, x) {
		t.Fatal("a job that took nothing holds x")
	}
	tb.Release(j1, x, rt.Read)
	if tb.HoldsRead(j1, x) || tb.LockCount() != 0 {
		t.Fatal("release failed")
	}
}

func TestAcquireIdempotent(t *testing.T) {
	tb := NewTable()
	tb.Acquire(j1, x, rt.Read)
	tb.Acquire(j1, x, rt.Read)
	if tb.LockCount() != 1 {
		t.Fatalf("duplicate acquire created %d locks", tb.LockCount())
	}
	if got := tb.ReadHeldBy(j1); len(got) != 1 {
		t.Fatalf("held list duplicated: %v", got)
	}
}

func TestMixedModesSameJob(t *testing.T) {
	tb := NewTable()
	tb.Acquire(j1, x, rt.Read)
	tb.Acquire(j1, x, rt.Write) // upgrade: both recorded
	if !tb.HoldsRead(j1, x) || !tb.HoldsWrite(j1, x) {
		t.Fatal("upgrade must keep both modes")
	}
	tb.Release(j1, x, rt.Read) // CCP's early release: the write lock stays
	if tb.HoldsRead(j1, x) || !tb.HoldsWrite(j1, x) {
		t.Fatal("releasing the read mode must keep the write mode")
	}
	tb.Release(j1, x, rt.Write)
	if tb.HoldsWrite(j1, x) || tb.LockCount() != 0 {
		t.Fatal("releasing both modes must clear x")
	}
}

func TestConcurrentWritersAllowed(t *testing.T) {
	// PCP-DA's blind writes: the table must be able to represent several
	// simultaneous write locks on one item.
	tb := NewTable()
	tb.Acquire(j1, x, rt.Write)
	tb.Acquire(j2, x, rt.Write)
	w := holders(tb.EachWriter, x)
	if len(w) != 2 || w[0] != j1 || w[1] != j2 {
		t.Fatalf("writers = %v, want [1 2] in acquisition order", w)
	}
}

func TestReaderWithForeignWriter(t *testing.T) {
	// PCP-DA's dynamic adjustment: a read lock may coexist with another
	// job's write lock.
	tb := NewTable()
	tb.Acquire(j1, x, rt.Write)
	tb.Acquire(j2, x, rt.Read)
	if !tb.HoldsWrite(j1, x) || !tb.HoldsRead(j2, x) {
		t.Fatal("coexisting R/W locks must be representable")
	}
}

func TestNoRlockByOthers(t *testing.T) {
	tb := NewTable()
	if !tb.NoRlockByOthers(x, j1) {
		t.Fatal("unlocked item: No_Rlock true")
	}
	tb.Acquire(j1, x, rt.Read)
	if !tb.NoRlockByOthers(x, j1) {
		t.Fatal("own read lock does not violate No_Rlock")
	}
	if tb.NoRlockByOthers(x, j2) {
		t.Fatal("foreign read lock violates No_Rlock")
	}
	tb.Acquire(j1, y, rt.Write)
	if !tb.NoRlockByOthers(y, j2) {
		t.Fatal("a write lock never violates No_Rlock")
	}
}

// TestReadersWritersOther: the holders other than a requester, which every
// protocol's conflict list is, come off the enumerators with the requester
// skipped.
func TestReadersWritersOther(t *testing.T) {
	tb := NewTable()
	tb.Acquire(j1, x, rt.Read)
	tb.Acquire(j2, x, rt.Read)
	tb.Acquire(j3, x, rt.Write)
	others := func(each func(rt.Item, func(rt.JobID) bool), o rt.JobID) []rt.JobID {
		var out []rt.JobID
		each(x, func(h rt.JobID) bool {
			if h != o {
				out = append(out, h)
			}
			return true
		})
		return out
	}
	if got := others(tb.EachReader, j1); len(got) != 1 || got[0] != j2 {
		t.Fatalf("readers other than j1 = %v", got)
	}
	if got := others(tb.EachWriter, j3); got != nil {
		t.Fatalf("writers other than j3 = %v, want none", got)
	}
	if got := others(tb.EachWriter, j1); len(got) != 1 || got[0] != j3 {
		t.Fatalf("writers other than j1 = %v", got)
	}
	if tb.NoRlockByOthers(x, j1) || !tb.NoRlockByOthers(y, j1) {
		t.Fatal("NoRlockByOthers disagrees with the readers other than j1")
	}
}

func TestReleaseAll(t *testing.T) {
	tb := NewTable()
	tb.Acquire(j1, x, rt.Read)
	tb.Acquire(j1, y, rt.Write)
	tb.Acquire(j1, y, rt.Read) // both modes on y
	tb.Acquire(j2, x, rt.Read)
	tb.ReleaseAll(j1)
	if tb.HoldsRead(j1, x) || tb.HoldsRead(j1, y) || tb.HoldsWrite(j1, y) || tb.ReadHeldBy(j1) != nil {
		t.Fatal("j1 must hold nothing")
	}
	if !tb.HoldsRead(j2, x) || tb.LockCount() != 1 {
		t.Fatal("other jobs' locks must survive")
	}
	tb.ReleaseAll(j3) // a lock-less job: a no-op
	if !tb.HoldsRead(j2, x) || tb.LockCount() != 1 {
		t.Fatal("releasing a lock-less job changed the table")
	}
}

func TestHeldByEnumeration(t *testing.T) {
	tb := NewTable()
	tb.Acquire(j1, y, rt.Write)
	tb.Acquire(j1, x, rt.Read)
	tb.Acquire(j1, z, rt.Read)
	r := tb.ReadHeldBy(j1)
	if len(r) != 2 || r[0] != x || r[1] != z {
		t.Fatalf("ReadHeldBy order = %v, want acquisition order [x z]", r)
	}
	w := writeHeld(tb, j1)
	if len(w) != 1 || w[0] != y {
		t.Fatalf("write-held = %v", w)
	}
	if tb.ReadHeldBy(j2) != nil || writeHeld(tb, j2) != nil {
		t.Fatal("job without locks holds nothing")
	}
	// Returned slices are copies.
	r[0] = z
	if got := tb.ReadHeldBy(j1); got[0] != x {
		t.Fatal("ReadHeldBy must return a copy")
	}
}

func TestEachReadLockDeterministic(t *testing.T) {
	tb := NewTable()
	tb.Acquire(j2, z, rt.Read)
	tb.Acquire(j1, x, rt.Read)
	tb.Acquire(j3, x, rt.Read)
	tb.Acquire(j1, y, rt.Write) // not a read lock: must not appear
	type pair struct {
		x rt.Item
		o rt.JobID
	}
	var got []pair
	tb.EachReadLock(func(x rt.Item, o rt.JobID) { got = append(got, pair{x, o}) })
	want := []pair{{x, j1}, {x, j3}, {z, j2}}
	if len(got) != len(want) {
		t.Fatalf("pairs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pairs = %v, want %v", got, want)
		}
	}
}

func TestEachWriteLock(t *testing.T) {
	tb := NewTable()
	tb.Acquire(j1, y, rt.Write)
	tb.Acquire(j2, x, rt.Write)
	tb.Acquire(j3, x, rt.Read)
	type pair struct {
		x rt.Item
		o rt.JobID
	}
	var got []pair
	tb.EachWriteLock(func(x rt.Item, o rt.JobID) { got = append(got, pair{x, o}) })
	want := []pair{{x, j2}, {y, j1}}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("pairs = %v, want %v", got, want)
	}
}

func TestReleaseUnheldIsNoop(t *testing.T) {
	tb := NewTable()
	tb.Release(j1, x, rt.Read) // nothing held at all
	tb.Acquire(j1, x, rt.Write)
	tb.Release(j2, x, rt.Write) // held, but not by j2
	if !tb.HoldsWrite(j1, x) {
		t.Fatal("foreign release must not drop the lock")
	}
	tb.Release(j1, x, rt.Read) // wrong mode
	if !tb.HoldsWrite(j1, x) {
		t.Fatal("wrong-mode release must not drop the lock")
	}
}

func TestLockCount(t *testing.T) {
	tb := NewTable()
	tb.Acquire(j1, x, rt.Read)
	tb.Acquire(j2, x, rt.Read)
	tb.Acquire(j1, y, rt.Write)
	if tb.LockCount() != 3 {
		t.Fatalf("LockCount = %d, want 3", tb.LockCount())
	}
}

// TestDump: the two lock enumerations together are a complete picture of the
// table, named through the catalog — what a debugging dump prints.
func TestDump(t *testing.T) {
	cat := rt.NewCatalog()
	a, b := cat.Intern("alpha"), cat.Intern("beta")
	tb := NewTable()
	tb.Acquire(j2, b, rt.Write)
	tb.Acquire(j1, a, rt.Read)
	tb.Acquire(j1, b, rt.Read)
	var out strings.Builder
	tb.EachReadLock(func(x rt.Item, o rt.JobID) { fmt.Fprintf(&out, "%s:R%d ", cat.Name(x), o) })
	tb.EachWriteLock(func(x rt.Item, o rt.JobID) { fmt.Fprintf(&out, "%s:W%d ", cat.Name(x), o) })
	if got, want := out.String(), "alpha:R1 beta:R1 beta:W2 "; got != want {
		t.Fatalf("dump = %q, want %q", got, want)
	}
}

func TestAcquireIsIdempotentPerMode(t *testing.T) {
	tb := NewTable()
	tb.Acquire(j1, x, rt.Read)
	tb.Acquire(j1, x, rt.Read)
	if n := tb.LockCount(); n != 1 || !tb.HoldsRead(j1, x) {
		t.Fatalf("re-acquiring a held read lock: %d locks, j1 reads x %v; want the one lock", n, tb.HoldsRead(j1, x))
	}
	tb.Acquire(j1, x, rt.Write)
	if n := tb.LockCount(); n != 2 || !tb.HoldsWrite(j1, x) {
		t.Fatalf("same item, new mode: %d locks, want 2", n)
	}
	tb.Acquire(j2, x, rt.Read)
	if n := tb.LockCount(); n != 3 || !tb.HoldsRead(j2, x) {
		t.Fatalf("same item, new holder: %d locks, want 3", n)
	}
	tb.Release(j1, x, rt.Read)
	if tb.HoldsRead(j1, x) {
		t.Fatal("released read lock still held")
	}
	tb.Acquire(j1, x, rt.Read)
	if n := tb.LockCount(); n != 3 || !tb.HoldsRead(j1, x) {
		t.Fatalf("re-acquisition after release: %d locks, j1 reads x %v", n, tb.HoldsRead(j1, x))
	}
}

func TestEachReaderEachWriter(t *testing.T) {
	tb := NewTable()
	tb.Acquire(j1, x, rt.Read)
	tb.Acquire(j2, x, rt.Read)
	tb.Acquire(j3, x, rt.Write)
	var readers, writers []rt.JobID
	tb.EachReader(x, func(o rt.JobID) bool { readers = append(readers, o); return true })
	tb.EachWriter(x, func(o rt.JobID) bool { writers = append(writers, o); return true })
	if len(readers) != 2 || len(writers) != 1 || writers[0] != j3 {
		t.Fatalf("readers %v writers %v", readers, writers)
	}
	// Early stop.
	n := 0
	tb.EachReader(x, func(o rt.JobID) bool { n++; return false })
	if n != 1 {
		t.Fatalf("early stop visited %d readers, want 1", n)
	}
	// Untracked item: no callbacks.
	tb.EachReader(y, func(o rt.JobID) bool { t.Fatal("unexpected reader"); return true })
}

func TestReleaseAllUnordered(t *testing.T) {
	tb := NewTable()
	tb.Acquire(j1, x, rt.Read)
	tb.Acquire(j1, x, rt.Write)
	tb.Acquire(j1, y, rt.Write)
	tb.Acquire(j2, x, rt.Read)
	tb.ReleaseAll(j1)
	if r, w := tb.ReadHeldBy(j1), writeHeld(tb, j1); r != nil || w != nil {
		t.Fatalf("j1 still holds R%v W%v", r, w)
	}
	if !tb.HoldsRead(j2, x) {
		t.Fatal("other holders must survive")
	}
	if tb.LockCount() != 1 {
		t.Fatalf("LockCount = %d, want 1", tb.LockCount())
	}
	tb.ReleaseAll(j1) // idempotent
	// The table must stay fully usable after bulk release.
	tb.Acquire(j1, y, rt.Write)
	if !tb.HoldsWrite(j1, y) || tb.LockCount() != 2 {
		t.Fatalf("acquire after bulk release: j1 writes y %v, %d locks", tb.HoldsWrite(j1, y), tb.LockCount())
	}
}

func TestFreelistRecycling(t *testing.T) {
	// Churning jobs through the table must not allocate once it is warm:
	// emptied item entries stay in place and retired holder records are
	// reused, whatever the job ids are (here they never repeat, as in the
	// live manager).
	if testenv.Race {
		t.Skip("the race runtime allocates")
	}
	tb := NewTable()
	next := rt.JobID(1)
	churn := func() {
		a, b := next, next+1
		next += 2
		tb.Acquire(a, x, rt.Read)
		tb.Acquire(b, x, rt.Read)
		tb.Acquire(a, y, rt.Write)
		tb.Acquire(b, y, rt.Write)
		tb.Release(b, x, rt.Read)
		tb.Release(b, y, rt.Write)
		tb.ReleaseAll(a)
	}
	for i := 0; i < 64; i++ {
		churn()
	}
	if tb.LockCount() != 0 {
		t.Fatalf("LockCount = %d after churn, want 0", tb.LockCount())
	}
	items, holders := tb.Extent()
	if allocs := testing.AllocsPerRun(100, churn); allocs != 0 {
		t.Fatalf("steady-state churn allocates %v per run, want 0", allocs)
	}
	if i, h := tb.Extent(); i != items || h != holders || h != 2 {
		t.Fatalf("table grew under churn: %d,%d -> %d,%d (two jobs hold locks at once)", items, holders, i, h)
	}
}
