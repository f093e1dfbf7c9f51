// Package lock implements the lock table shared by every concurrency-control
// protocol in this repository.
//
// The table is deliberately policy-free: it records which job holds which
// item in which mode and answers the structural queries the protocols'
// ceiling rules are phrased in (No_Rlock(x), "items read-locked by
// transactions other than T_i", holder enumeration). Whether a lock may be
// GRANTED is decided by the protocol packages; the table only stores the
// outcome. In particular it permits states classical 2PL would forbid, such
// as several concurrent write locks on one item (PCP-DA's non-conflicting
// blind writes) or a read lock coexisting with another job's write lock
// (PCP-DA's dynamic adjustment of serialization order).
//
// All enumeration orders are deterministic (acquisition order) so that
// simulations are exactly reproducible.
package lock

import (
	"slices"

	"pcpda/internal/rt"
)

// entry is the per-item lock record.
type entry struct {
	readers []rt.JobID // in acquisition order
	writers []rt.JobID // in acquisition order
}

// heldSet tracks the items one job holds, per mode, in acquisition order.
type heldSet struct {
	o     rt.JobID
	read  []rt.Item
	write []rt.Item
}

// Table is the lock table. The zero value is not usable; call NewTable.
//
// Both sides are slices, and neither grows with the number of jobs served.
// items is indexed by item id and reaches one past the highest item ever
// locked; an emptied entry stays in place and keeps its slices. held[:live]
// are the jobs holding a lock right now, in no particular order, found by a
// scan: job ids are unbounded in the live manager, so they index nothing,
// but the holders at one instant are at most the live transactions.
// held[live:] are retired records kept for their slices, so a steady-state
// workload allocates nothing once warm.
type Table struct {
	items []entry
	held  []heldSet
	live  int

	// ops counts mutating calls (Acquire and every Release variant),
	// lifetime. It shares the caller's synchronization like the rest of
	// the table; rtm reads it via Stats to prove the read-only snapshot
	// path generated zero lock-table traffic.
	ops int64
}

// NewTable returns an empty lock table.
func NewTable() *Table { return &Table{} }

// entryFor returns x's entry, growing items to cover x. A negative id
// panics (rt.Item.Index).
func (t *Table) entryFor(x rt.Item) *entry {
	i := x.Index()
	if i >= len(t.items) {
		t.items = append(t.items, make([]entry, i+1-len(t.items))...)
	}
	return &t.items[i]
}

// entryOf returns x's entry for a query: the empty one when x is outside the
// table (never locked, or not an item id at all).
func (t *Table) entryOf(x rt.Item) entry {
	if x < 0 || int(x) >= len(t.items) {
		return entry{}
	}
	return t.items[x]
}

// heldOf returns o's record among the live ones, nil when o holds nothing.
func (t *Table) heldOf(o rt.JobID) *heldSet {
	for i := range t.held[:t.live] {
		if t.held[i].o == o {
			return &t.held[i]
		}
	}
	return nil
}

// heldFor returns o's record, opening one (a retired one when there is) if
// o holds nothing yet. The pointer is valid until the next heldFor.
func (t *Table) heldFor(o rt.JobID) *heldSet {
	h := t.heldOf(o)
	if h == nil {
		if t.live == len(t.held) {
			t.held = append(t.held, heldSet{})
		}
		h = &t.held[t.live]
		h.o = o
		t.live++
	}
	return h
}

// dropHeld retires h: emptied, it swaps places with the last live record.
func (t *Table) dropHeld(h *heldSet) {
	t.live--
	last := &t.held[t.live]
	*h, *last = *last, heldSet{read: h.read[:0], write: h.write[:0]}
}

// remove deletes the first v from s in place, keeping the order of the rest.
func remove[T comparable](s []T, v T) []T {
	if i := slices.Index(s, v); i >= 0 {
		return slices.Delete(s, i, i+1)
	}
	return s
}

// Acquire records that o now holds x in mode m; taking a mode o already holds
// on x is a no-op. It is the caller's (protocol's) responsibility to have
// decided the grant is legal.
func (t *Table) Acquire(o rt.JobID, x rt.Item, m rt.Mode) {
	t.ops++
	e := t.entryFor(x)
	h := t.heldFor(o)
	if m == rt.Read {
		if !slices.Contains(e.readers, o) {
			e.readers = append(e.readers, o)
			h.read = append(h.read, x)
		}
	} else if !slices.Contains(e.writers, o) {
		e.writers = append(e.writers, o)
		h.write = append(h.write, x)
	}
}

// Release drops o's lock on x in mode m. Releasing a lock not held is a
// no-op; a negative item id panics (rt.Item.Index).
func (t *Table) Release(o rt.JobID, x rt.Item, m rt.Mode) {
	t.ops++
	if x.Index() >= len(t.items) {
		return
	}
	h := t.heldOf(o)
	if h == nil {
		return
	}
	e := &t.items[x]
	if m == rt.Read {
		e.readers = remove(e.readers, o)
		h.read = remove(h.read, x)
	} else {
		e.writers = remove(e.writers, o)
		h.write = remove(h.write, x)
	}
	if len(h.read) == 0 && len(h.write) == 0 {
		t.dropHeld(h)
	}
}

// ReleaseAll drops every lock held by o; it allocates nothing.
//
//pcpda:alloc-free
func (t *Table) ReleaseAll(o rt.JobID) {
	t.ops++
	h := t.heldOf(o)
	if h == nil {
		return
	}
	for _, x := range h.read {
		t.items[x].readers = remove(t.items[x].readers, o)
	}
	for _, x := range h.write {
		t.items[x].writers = remove(t.items[x].writers, o)
	}
	t.dropHeld(h)
}

// HoldsRead reports whether o holds a read lock on x.
func (t *Table) HoldsRead(o rt.JobID, x rt.Item) bool {
	return slices.Contains(t.entryOf(x).readers, o)
}

// HoldsWrite reports whether o holds a write lock on x.
func (t *Table) HoldsWrite(o rt.JobID, x rt.Item) bool {
	return slices.Contains(t.entryOf(x).writers, o)
}

// EachReader calls fn for every job holding a read lock on x, in acquisition
// order, stopping early when fn returns false. Allocation-free; fn must not
// mutate the table.
//
//pcpda:alloc-free
func (t *Table) EachReader(x rt.Item, fn func(o rt.JobID) bool) {
	for _, o := range t.entryOf(x).readers {
		if !fn(o) {
			return
		}
	}
}

// EachWriter calls fn for every job holding a write lock on x, in
// acquisition order, stopping early when fn returns false. Allocation-free;
// fn must not mutate the table.
//
//pcpda:alloc-free
func (t *Table) EachWriter(x rt.Item, fn func(o rt.JobID) bool) {
	for _, o := range t.entryOf(x).writers {
		if !fn(o) {
			return
		}
	}
}

// NoRlockByOthers implements the paper's No_Rlock_i(x) predicate: x is not
// read-locked by any transaction other than o.
func (t *Table) NoRlockByOthers(x rt.Item, o rt.JobID) bool {
	for _, id := range t.entryOf(x).readers {
		if id != o {
			return false
		}
	}
	return true
}

// Ceiling answers the question every ceiling protocol's admission rule asks
// — the paper's Sysceil_i and T*: the highest ceiling over the locks held by
// jobs other than o, and the jobs holding a lock that realises it. A read
// lock on x raises onRead[x] and a write lock onWrite[x]; a nil table, or an
// item past its end, raises nothing. rt.NoJob excludes nobody. The holders
// come back appended to holders[:0] (the caller's scratch; nil is fine), each
// once, and none when the ceiling is the dummy one.
//
// The cost is O(locks held by others) whatever the catalog's size: the walk
// is over the per-holder records, and under a ceiling protocol few jobs hold
// locks at one instant — that is what the ceiling is for.
func (t *Table) Ceiling(o rt.JobID, onRead, onWrite []rt.Priority, holders []rt.JobID) (rt.Priority, []rt.JobID) {
	c := rt.Dummy
	holders = holders[:0]
	for i := range t.held[:t.live] {
		h := &t.held[i]
		if h.o == o {
			continue
		}
		own := raised(onRead, h.read).Max(raised(onWrite, h.write))
		if own > c {
			c = own
			holders = holders[:0]
		}
		if own == c && !c.IsDummy() {
			holders = append(holders, h.o)
		}
	}
	return c, holders
}

// raised returns the highest ceil[x] over items, the dummy level when none
// of them has an entry.
func raised(ceil []rt.Priority, items []rt.Item) rt.Priority {
	c := rt.Dummy
	for _, x := range items {
		if int(x) < len(ceil) && ceil[x] > c {
			c = ceil[x]
		}
	}
	return c
}

// ReadHeldBy returns the items o holds read locks on, in acquisition order.
// The returned slice is a copy.
func (t *Table) ReadHeldBy(o rt.JobID) []rt.Item {
	if h := t.heldOf(o); h != nil {
		return append([]rt.Item(nil), h.read...)
	}
	return nil
}

// EachReadLock calls fn for every (item, holder) read-lock pair in the
// table, in deterministic (item id, acquisition) order: what the invariant
// checkers and test oracles recompute from. It visits every item slot, so
// nothing on a request path calls it (Ceiling is the query for that). fn
// must not mutate the table.
func (t *Table) EachReadLock(fn func(x rt.Item, holder rt.JobID)) {
	for x := range t.items {
		for _, o := range t.items[x].readers {
			fn(rt.Item(x), o)
		}
	}
}

// EachWriteLock calls fn for every (item, holder) write-lock pair, in the
// same deterministic order. fn must not mutate the table.
func (t *Table) EachWriteLock(fn func(x rt.Item, holder rt.JobID)) {
	for x := range t.items {
		for _, o := range t.items[x].writers {
			fn(rt.Item(x), o)
		}
	}
}

// Ops returns the lifetime count of mutating table calls (Acquire and
// the Release variants). A span over which Ops is unchanged performed no
// lock-table traffic at all.
func (t *Table) Ops() int64 { return t.ops }

// LockCount returns the total number of (job, item, mode) locks held.
func (t *Table) LockCount() int {
	n := 0
	for i := range t.items {
		n += len(t.items[i].readers) + len(t.items[i].writers)
	}
	return n
}

// Extent returns how far the table's slices have grown: item slots, and
// holder records live or retired. A long-running caller asserts both flat.
func (t *Table) Extent() (items, holders int) { return len(t.items), len(t.held) }
