package lock

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"pcpda/internal/rt"
	"pcpda/internal/testenv"
)

// model is the reference lock table: the semantics Table had when both its
// sides were Go maps (per-item holder lists and per-job item lists, each in
// acquisition order). The property test and FuzzLockTableVsModel drive it
// and a Table with the same operations and demand that every query agrees.
// Each Table query is read through collectors like the ones below, so the
// test asks only what the protocols can ask.
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

func (m *model) acquire(o rt.JobID, x rt.Item, mode rt.Mode) {
	byItem, byJob := m.sides(mode)
	if !slices.Contains(byItem[x], o) {
		byItem[x] = append(byItem[x], o)
		byJob[o] = append(byJob[o], x)
	}
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
		tb.Acquire(o, x, mode)
		m.acquire(o, x, mode)
	case 4:
		tb.Release(o, x, mode)
		m.release(o, x, mode)
	case 5: // both modes, one after the other
		for _, mode := range []rt.Mode{rt.Read, rt.Write} {
			tb.Release(o, x, mode)
			m.release(o, x, mode)
		}
	case 6, 7:
		tb.ReleaseAll(o)
		m.releaseAll(o)
	}
}

// holders collects what EachReader or EachWriter visits on x, in order.
func holders(each func(rt.Item, func(rt.JobID) bool), x rt.Item) []rt.JobID {
	var out []rt.JobID
	each(x, func(o rt.JobID) bool { out = append(out, o); return true })
	return out
}

// writeHeld collects the items o write-locks, in item id order: the table
// has no per-job write query, so it reads EachWriteLock.
func writeHeld(tb *Table, o rt.JobID) []rt.Item {
	var out []rt.Item
	tb.EachWriteLock(func(x rt.Item, h rt.JobID) {
		if h == o {
			out = append(out, x)
		}
	})
	return out
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
		if r, w := holders(tb.EachReader, x), holders(tb.EachWriter, x); !sameSeq(r, m.readers[x]) || !sameSeq(w, m.writers[x]) {
			t.Fatalf("item %d: R%v W%v want R%v W%v (acquisition order)", x, r, w, m.readers[x], m.writers[x])
		}
		locks += len(m.readers[x]) + len(m.writers[x])
		for _, o := range m.readers[x] {
			wantR = append(wantR, [2]int32{int32(x), int32(o)})
		}
		for _, o := range m.writers[x] {
			wantW = append(wantW, [2]int32{int32(x), int32(o)})
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
		r, w, wantW := tb.ReadHeldBy(o), writeHeld(tb, o), slices.Clone(m.heldW[o])
		slices.Sort(wantW)
		if !sameSeq(r, m.heldR[o]) || !sameSeq(w, wantW) {
			t.Fatalf("job %d: holds R%v W%v want R%v (acquisition order) W%v (any order)", o, r, w, m.heldR[o], m.heldW[o])
		}
		if len(m.heldR[o])+len(m.heldW[o]) > 0 {
			live++
		}
	}
	if tb.live != live {
		t.Fatalf("%d live holder records for %d jobs holding locks", tb.live, live)
	}
	ceilingAgrees(t, tb, m, jobs, maxItem)
}

// testW and testA are random ceiling tables with the one relation real ones
// have, Wceil(x) <= Aceil(x). A third of the entries are the dummy level, and
// the tables stop short of the items the tests lock, so some held locks have
// no entry at all.
var testW, testA = func() (w, a []rt.Priority) {
	rng := rand.New(rand.NewSource(24))
	w, a = make([]rt.Priority, 200), make([]rt.Priority, 200)
	for x := range a {
		if rng.Intn(3) > 0 {
			a[x] = rt.Priority(1 + rng.Intn(6))
			w[x] = rt.Priority(rng.Intn(int(a[x]) + 1))
		}
	}
	return w, a
}()

// modelCeiling is the paper's definition, read off the model item by item:
// the highest ceiling over the locks held by jobs other than excl — onRead[x]
// for each reader of x, onWrite[x] for each writer — and the set of jobs
// holding a lock at that level.
func modelCeiling(m *model, excl rt.JobID, onRead, onWrite []rt.Priority, maxItem rt.Item) (rt.Priority, map[rt.JobID]bool) {
	c, at := rt.Dummy, map[rt.JobID]bool{}
	raise := func(p rt.Priority, holders []rt.JobID) {
		for _, o := range holders {
			if o == excl || p.IsDummy() || p < c {
				continue
			}
			if p > c {
				c = p
				clear(at)
			}
			at[o] = true
		}
	}
	level := func(tab []rt.Priority, x rt.Item) rt.Priority {
		if int(x) >= len(tab) {
			return rt.Dummy
		}
		return tab[x]
	}
	for x := rt.Item(0); x <= maxItem; x++ {
		raise(level(onRead, x), m.readers[x])
		raise(level(onWrite, x), m.writers[x])
	}
	return c, at
}

// modelRWCeiling is RW-PCP's definition, per item: x stands at Aceil(x) once
// a job other than excl write-locks it, at Wceil(x) while such jobs only
// read-lock it, and every such holder of an item at the top level is named.
// mixed reports whether some item is read-locked by one of those jobs and
// write-locked by another — the states RW-PCP never reaches, and the only
// ones where this reading and the per-lock one name different holders.
func modelRWCeiling(m *model, excl rt.JobID, maxItem rt.Item) (c rt.Priority, at map[rt.JobID]bool, mixed bool) {
	at = map[rt.JobID]bool{}
	others := func(ids []rt.JobID) []rt.JobID {
		return slices.DeleteFunc(slices.Clone(ids), func(o rt.JobID) bool { return o == excl })
	}
	for x := rt.Item(0); x <= maxItem && int(x) < len(testA); x++ {
		r, w := others(m.readers[x]), others(m.writers[x])
		for _, o := range r {
			if len(w) > 1 || len(w) == 1 && w[0] != o {
				mixed = true
			}
		}
		p := testW[x]
		if len(w) > 0 {
			p = testA[x]
		}
		if p.IsDummy() || p < c || len(r)+len(w) == 0 {
			continue
		}
		if p > c {
			c = p
			clear(at)
		}
		for _, o := range append(r, w...) {
			at[o] = true
		}
	}
	return c, at, mixed
}

// ceilingAgrees checks Table.Ceiling, for every excluded id (rt.NoJob
// included) and the three table shapes the protocols pass, against the
// model's recomputation; that the holders come back in the caller's buffer
// with nothing of its old contents; and that a warm call allocates nothing.
func ceilingAgrees(t *testing.T, tb *Table, m *model, jobs []rt.JobID, maxItem rt.Item) {
	t.Helper()
	shapes := []struct {
		name            string
		onRead, onWrite []rt.Priority
	}{{"(W,nil)", testW, nil}, {"(A,A)", testA, testA}, {"(W,A)", testW, testA}}
	buf := make([]rt.JobID, 0, len(jobs))
	for _, excl := range append([]rt.JobID{rt.NoJob}, jobs...) {
		for _, sh := range shapes {
			wantC, wantAt := modelCeiling(m, excl, sh.onRead, sh.onWrite, maxItem)
			buf = append(buf[:0], -7, -7, -7) // stale contents a correct call overwrites
			gotC, got := tb.Ceiling(excl, sh.onRead, sh.onWrite, buf)
			if gotC != wantC || len(got) != len(wantAt) {
				t.Fatalf("Ceiling%s excluding %d = %v %v, the model says %v %v", sh.name, excl, gotC, got, wantC, wantAt)
			}
			for i, o := range got {
				if !wantAt[o] || slices.Contains(got[:i], o) {
					t.Fatalf("Ceiling%s excluding %d names %v, the model says %v", sh.name, excl, got, wantAt)
				}
			}
			if len(got) > 0 && &got[0] != &buf[0] {
				t.Fatalf("Ceiling%s: %d holders fit the buffer of %d and came back elsewhere", sh.name, len(got), cap(buf))
			}
			if nilC, fromNil := tb.Ceiling(excl, sh.onRead, sh.onWrite, nil); nilC != gotC || !sameSeq(fromNil, got) {
				t.Fatalf("Ceiling%s into a nil buffer = %v %v, into a used one %v %v", sh.name, nilC, fromNil, gotC, got)
			}
		}
		if rwC, rwAt, mixed := modelRWCeiling(m, excl, maxItem); !mixed {
			gotC, got := tb.Ceiling(excl, testW, testA, buf)
			if gotC != rwC || len(got) != len(rwAt) {
				t.Fatalf("per-lock Ceiling(W,A) excluding %d = %v %v, RW-PCP's per-item reading %v %v", excl, gotC, got, rwC, rwAt)
			}
			for _, o := range got {
				if !rwAt[o] {
					t.Fatalf("per-lock Ceiling(W,A) excluding %d names %v, RW-PCP's per-item reading %v", excl, got, rwAt)
				}
			}
		}
	}
	if !testenv.Race {
		if allocs := testing.AllocsPerRun(1, func() { _, buf = tb.Ceiling(rt.NoJob, testW, testA, buf) }); allocs != 0 {
			t.Fatalf("a warm Ceiling allocates %v times", allocs)
		}
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
		if tb.HoldsRead(1, x) || tb.HoldsWrite(1, x) || !tb.NoRlockByOthers(x, 1) || !tb.NoRlockByOthers(x, 2) {
			t.Errorf("item %d reads as held", x)
		}
		tb.EachReader(x, func(rt.JobID) bool { t.Errorf("EachReader(%d) called back", x); return true })
		tb.EachWriter(x, func(rt.JobID) bool { t.Errorf("EachWriter(%d) called back", x); return true })
	}
	tb.Release(1, 1<<30, rt.Read) // past the table: nothing held there, a no-op
	if items, holders := tb.Extent(); items != 3 || holders != 1 {
		t.Fatalf("queries and a no-op release grew the table to %d item slots, %d holder records", items, holders)
	}
	for name, fn := range map[string]func(){
		"Acquire":        func() { tb.Acquire(7, -1, rt.Write) },
		"Release":        func() { tb.Release(1, -1, rt.Read) },
		"Release(write)": func() { tb.Release(1, rt.NoItem, rt.Write) },
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
		t.Fatalf("a refused mutation changed the table: %d locks, %d live holders, job 1 reads item 2: %v", tb.LockCount(), tb.live, tb.HoldsRead(1, 2))
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
