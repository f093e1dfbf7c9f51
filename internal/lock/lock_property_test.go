package lock

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"pcpda/internal/rt"
)

// model is the reference lock table: the semantics Table had when both its
// sides were Go maps (per-item holder lists and per-job item lists, each in
// acquisition order). The property test and FuzzLockTableVsModel drive it
// and a Table with the same operations and demand that every query agrees.
type model struct {
	readers, writers map[rt.Item][]rt.JobID
	heldR, heldW     map[rt.JobID][]rt.Item
}

func newModel() *model {
	return &model{
		readers: map[rt.Item][]rt.JobID{}, writers: map[rt.Item][]rt.JobID{},
		heldR: map[rt.JobID][]rt.Item{}, heldW: map[rt.JobID][]rt.Item{},
	}
}

func (m *model) sides(mode rt.Mode) (map[rt.Item][]rt.JobID, map[rt.JobID][]rt.Item) {
	if mode == rt.Read {
		return m.readers, m.heldR
	}
	return m.writers, m.heldW
}

func (m *model) acquire(o rt.JobID, x rt.Item, mode rt.Mode) bool {
	byItem, byJob := m.sides(mode)
	if slices.Contains(byItem[x], o) {
		return false
	}
	byItem[x] = append(byItem[x], o)
	byJob[o] = append(byJob[o], x)
	return true
}

func (m *model) release(o rt.JobID, x rt.Item, mode rt.Mode) {
	byItem, byJob := m.sides(mode)
	// The lists hold no duplicates, so deleting every match deletes the one.
	byItem[x] = slices.DeleteFunc(byItem[x], func(h rt.JobID) bool { return h == o })
	byJob[o] = slices.DeleteFunc(byJob[o], func(it rt.Item) bool { return it == x })
}

func (m *model) releaseAll(o rt.JobID) {
	for _, mode := range []rt.Mode{rt.Read, rt.Write} {
		_, byJob := m.sides(mode)
		for _, x := range append([]rt.Item(nil), byJob[o]...) {
			m.release(o, x, mode)
		}
	}
}

// apply performs one operation, chosen by op, on both tables.
func apply(t *testing.T, tb *Table, m *model, op int, o rt.JobID, x rt.Item, mode rt.Mode) {
	t.Helper()
	switch op % 8 {
	case 0, 1, 2, 3:
		if got, want := tb.Acquire(o, x, mode), m.acquire(o, x, mode); got != want {
			t.Fatalf("Acquire(%d,%d,%v)=%v want %v", o, x, mode, got, want)
		}
	case 4:
		tb.Release(o, x, mode)
		m.release(o, x, mode)
	case 5:
		tb.ReleaseItem(o, x)
		m.release(o, x, rt.Read)
		m.release(o, x, rt.Write)
	case 6:
		want := append(append([]rt.Item(nil), m.heldR[o]...), m.heldW[o]...)
		got := tb.ReleaseAll(o)
		m.releaseAll(o)
		// Deduplicated, read-locked items first: every item once.
		seen := map[rt.Item]bool{}
		for _, x := range got {
			if seen[x] {
				t.Fatalf("ReleaseAll(%d) returned %v: duplicate", o, got)
			}
			seen[x] = true
		}
		for _, x := range want {
			if !seen[x] {
				t.Fatalf("ReleaseAll(%d) returned %v, held %v", o, got, want)
			}
		}
	case 7:
		tb.ReleaseAllUnordered(o)
		m.releaseAll(o)
	}
}

func sameSeq[T comparable](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// agree checks every query of tb against the model, for the given jobs and
// items 0..maxItem plus ids on either side of any table.
func agree(t *testing.T, tb *Table, m *model, jobs []rt.JobID, maxItem rt.Item) {
	t.Helper()
	locks := 0
	var wantR, wantW, gotR, gotW [][2]int32 // (item, holder) enumerations
	for x := rt.Item(-1); x <= maxItem+1; x++ {
		if !sameSeq(tb.Readers(x), m.readers[x]) || !sameSeq(tb.Writers(x), m.writers[x]) {
			t.Fatalf("item %d: R%v W%v want R%v W%v (acquisition order)", x, tb.Readers(x), tb.Writers(x), m.readers[x], m.writers[x])
		}
		locks += len(m.readers[x]) + len(m.writers[x])
		for _, o := range m.readers[x] {
			wantR = append(wantR, [2]int32{int32(x), int32(o)})
		}
		for _, o := range m.writers[x] {
			wantW = append(wantW, [2]int32{int32(x), int32(o)})
		}
		var each []rt.JobID
		tb.EachReader(x, func(o rt.JobID) bool { each = append(each, o); return true })
		if !sameSeq(each, m.readers[x]) {
			t.Fatalf("item %d: EachReader %v want %v", x, each, m.readers[x])
		}
		for _, o := range jobs {
			if tb.HoldsRead(o, x) != slices.Contains(m.readers[x], o) || tb.HoldsWrite(o, x) != slices.Contains(m.writers[x], o) {
				t.Fatalf("Holds(%d,%d) disagrees with the model", o, x)
			}
			others := len(m.readers[x])
			if slices.Contains(m.readers[x], o) {
				others--
			}
			if tb.NoRlockByOthers(x, o) != (others == 0) {
				t.Fatalf("NoRlockByOthers(%d,%d)=%v with %d other readers", x, o, tb.NoRlockByOthers(x, o), others)
			}
		}
	}
	if got := tb.LockCount(); got != locks {
		t.Fatalf("LockCount=%d want %d", got, locks)
	}
	tb.EachReadLock(func(x rt.Item, o rt.JobID) { gotR = append(gotR, [2]int32{int32(x), int32(o)}) })
	tb.EachWriteLock(func(x rt.Item, o rt.JobID) { gotW = append(gotW, [2]int32{int32(x), int32(o)}) })
	if !sameSeq(gotR, wantR) || !sameSeq(gotW, wantW) {
		t.Fatalf("EachReadLock/EachWriteLock not in (item id, acquisition) order:\n got R%v W%v\nwant R%v W%v", gotR, gotW, wantR, wantW)
	}
	live := 0
	for _, o := range jobs {
		if !sameSeq(tb.ReadHeldBy(o), m.heldR[o]) || !sameSeq(tb.WriteHeldBy(o), m.heldW[o]) {
			t.Fatalf("job %d: holds R%v W%v want R%v W%v (acquisition order)", o, tb.ReadHeldBy(o), tb.WriteHeldBy(o), m.heldR[o], m.heldW[o])
		}
		if len(m.heldR[o])+len(m.heldW[o]) > 0 {
			live++
		}
	}
	if tb.live != live {
		t.Fatalf("%d live holder records for %d jobs holding locks", tb.live, live)
	}
}

// TestRandomOpSequencesPreserveInvariants drives the table with random
// sequences of every mutating operation over 256 items — across the slice's
// growth steps, with half the draws on four hot items so holders collide —
// and job ids as far apart as a long-running manager's, and checks after
// every operation that every query agrees with the map model.
func TestRandomOpSequencesPreserveInvariants(t *testing.T) {
	const maxItem = 255
	jobs := []rt.JobID{0, 1, 2, 70_000, 1<<31 - 1}
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tb, m := NewTable(), newModel()
		for step := 0; step < 400; step++ {
			x := rt.Item(rng.Intn(4))
			if rng.Intn(2) == 0 {
				x = rt.Item(rng.Intn(maxItem + 1))
			}
			apply(t, tb, m, rng.Intn(8), jobs[rng.Intn(len(jobs))], x, rt.Mode(rng.Intn(2)))
			agree(t, tb, m, jobs, maxItem)
		}
		if items, holders := tb.Extent(); items > maxItem+1 || holders > len(jobs) {
			t.Fatalf("seed %d: table grew to %d item slots, %d holder records", seed, items, holders)
		}
	}
}

// FuzzLockTableVsModel is the property test with the operation sequence
// chosen by the fuzzer: three bytes per operation (op and mode, job, item).
func FuzzLockTableVsModel(f *testing.F) {
	f.Add([]byte{0, 0, 1, 8, 1, 1, 6, 0, 0})
	f.Add([]byte{0, 0, 200, 0, 1, 200, 8, 2, 200, 7, 1, 0, 5, 0, 200})
	jobs := []rt.JobID{0, 1, 2, 3}
	f.Fuzz(func(t *testing.T, prog []byte) {
		tb, m := NewTable(), newModel()
		for ; len(prog) >= 3; prog = prog[3:] {
			apply(t, tb, m, int(prog[0]), jobs[prog[1]%4], rt.Item(prog[2]), rt.Mode(prog[0]>>3&1))
		}
		agree(t, tb, m, jobs, 255)
	})
}

// TestBoundary: ids outside any catalog are "not held" to a query and grow
// nothing; a mutation with a negative id is a named panic, and one that
// leaves no trace in the table.
func TestBoundary(t *testing.T) {
	tb := NewTable()
	tb.Acquire(1, 2, rt.Read)
	for _, x := range []rt.Item{-1, rt.NoItem, -1 << 31, 3, 1 << 30} {
		if tb.HoldsRead(1, x) || tb.HoldsWrite(1, x) || tb.Holds(1, x) || !tb.NoRlockByOthers(x, 1) {
			t.Errorf("item %d reads as held", x)
		}
		if tb.Readers(x) != nil || tb.Writers(x) != nil || tb.ReadersOther(x, 2) != nil {
			t.Errorf("item %d has holders", x)
		}
		tb.EachReader(x, func(rt.JobID) bool { t.Errorf("EachReader(%d) called back", x); return true })
		tb.EachWriter(x, func(rt.JobID) bool { t.Errorf("EachWriter(%d) called back", x); return true })
	}
	tb.Release(1, 1<<30, rt.Read) // past the table: nothing held there, a no-op
	if items, holders := tb.Extent(); items != 3 || holders != 1 {
		t.Fatalf("queries and a no-op release grew the table to %d item slots, %d holder records", items, holders)
	}
	for name, fn := range map[string]func(){
		"Acquire":     func() { tb.Acquire(7, -1, rt.Write) },
		"Release":     func() { tb.Release(1, -1, rt.Read) },
		"ReleaseItem": func() { tb.ReleaseItem(1, rt.NoItem) },
	} {
		func() {
			defer func() {
				msg, ok := recover().(string)
				if !ok || !strings.HasPrefix(msg, "rt: negative item id") {
					t.Errorf("%s(-1): want the named rt.Item.Index panic, got %v", name, msg)
				}
			}()
			fn()
		}()
	}
	if tb.LockCount() != 1 || tb.live != 1 || !tb.HoldsRead(1, 2) {
		t.Fatalf("a refused mutation changed the table:\n%s", tb.Dump(nil))
	}
}

// TestEnumerationOrderStableAcrossNoops: releasing unheld locks must not
// perturb acquisition order.
func TestEnumerationOrderStableAcrossNoops(t *testing.T) {
	tb := NewTable()
	tb.Acquire(1, 3, rt.Read)
	tb.Acquire(1, 1, rt.Read)
	tb.Acquire(1, 2, rt.Read)
	before := tb.ReadHeldBy(1)
	tb.Release(2, 3, rt.Read) // foreign: no-op
	tb.Release(1, 9, rt.Read) // unheld item: no-op
	after := tb.ReadHeldBy(1)
	if len(before) != len(after) {
		t.Fatal("no-op releases changed holdings")
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("no-op releases reordered holdings")
		}
	}
}
