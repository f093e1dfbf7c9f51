// Package rt defines the elementary vocabulary shared by every subsystem of
// the PCP-DA reproduction: discrete simulation time, transaction priorities,
// data-item identifiers and lock modes.
//
// The paper (Lam/Son/Hung, ICDE 1997) assumes a single processor, a memory
// resident database, and periodic transactions whose priorities form a total
// order with a distinguished "dummy" level below every real priority. This
// package encodes those assumptions as small value types so that the rest of
// the code can state ceiling rules in the paper's own terms.
package rt

import "fmt"

// Ticks is a point in (or duration of) discrete simulation time. The paper's
// examples advance in integer time units; one tick is one unit of processor
// execution.
type Ticks int64

// Priority is a transaction priority. Larger values are more urgent. The
// zero value is Dummy, the paper's "dummy priority ... lower than the
// priorities of all transactions in the system", used as the floor for
// priority ceilings of items nobody writes.
type Priority int

// Dummy is the ceiling/priority level below every real transaction priority.
const Dummy Priority = 0

// IsDummy reports whether p is the dummy (floor) priority level.
func (p Priority) IsDummy() bool { return p <= Dummy }

// Max returns the higher of p and q.
func (p Priority) Max(q Priority) Priority {
	if q > p {
		return q
	}
	return p
}

// String renders the priority the way the paper writes it: the dummy level
// prints as "dummy", anything else as "P<rank>" via the Namer installed by
// the caller, or the raw level when no rank mapping is known.
func (p Priority) String() string {
	if p.IsDummy() {
		return "dummy"
	}
	return fmt.Sprintf("prio(%d)", int(p))
}

// Item identifies a data item in the memory-resident database. Items are
// dense small integers; human-readable names live in a Catalog.
type Item int32

// JobID identifies one released instance ("job") of a periodic transaction
// within a simulation run. Job identifiers are dense and unique per run.
type JobID int64

// NoJob is the sentinel for "no job".
const NoJob JobID = -1

// NoItem is the zero Item, used where a lock decision concerns no specific
// data item.
const NoItem Item = -1

// Mode is a lock mode. PCP-DA and its baselines use read and write locks;
// the original PCP treats every lock as exclusive, which the kernel models
// as Write.
type Mode uint8

const (
	// Read is a shared lock mode.
	Read Mode = iota
	// Write is an exclusive (or, under PCP-DA, deferred-update) lock mode.
	Write
)

// String returns "R" or "W".
func (m Mode) String() string {
	if m == Read {
		return "R"
	}
	return "W"
}

// Conflicts reports the classical single-copy conflict relation between two
// lock modes: everything conflicts except Read/Read. PCP-DA deliberately
// deviates from this table (write/write pairs do not conflict under deferred
// updates); protocols that need the classical relation use this helper.
func Conflicts(a, b Mode) bool { return a == Write || b == Write }

// Catalog maps item identifiers to stable human-readable names. It is
// append-only and not safe for concurrent mutation; simulations build it up
// front.
type Catalog struct {
	names []string
	index map[string]Item
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{index: make(map[string]Item)}
}

// Intern returns the Item for name, minting a fresh identifier the first
// time the name is seen.
func (c *Catalog) Intern(name string) Item {
	if it, ok := c.index[name]; ok {
		return it
	}
	it := Item(len(c.names))
	c.names = append(c.names, name)
	c.index[name] = it
	return it
}

// Lookup returns the Item for name and whether it exists.
func (c *Catalog) Lookup(name string) (Item, bool) {
	it, ok := c.index[name]
	return it, ok
}

// Name returns the name of it, or a synthetic "item<N>" when it was never
// interned (including NoItem).
func (c *Catalog) Name(it Item) string {
	if c == nil || it < 0 || int(it) >= len(c.names) {
		if it == NoItem {
			return "<none>"
		}
		return fmt.Sprintf("item%d", int(it))
	}
	return c.names[it]
}

// Len returns the number of interned items.
func (c *Catalog) Len() int { return len(c.names) }

// Names returns the interned names in identifier order. The returned slice
// is a copy.
func (c *Catalog) Names() []string {
	out := make([]string, len(c.names))
	copy(out, c.names)
	return out
}

// Index returns it as a slice index. Items are catalog indexes, so a
// negative one (NoItem included) reaching a structure that keeps per-item
// state is a caller bug; it panics here by name rather than as an anonymous
// index-out-of-range inside that structure. Queries never call this: an id
// outside what a structure covers reads as "absent".
func (it Item) Index() int {
	if it < 0 {
		panic("rt: negative item id used as an index")
	}
	return int(it)
}

// ItemSet is a small set of data items with deterministic iteration order
// (sorted insertion is not required; order follows first insertion). It is
// the representation for the paper's WriteSet(T) and DataRead(T).
//
// Membership is a bitset over the item id — one inline word for items 0..63,
// which covers every catalog in this tree, further words grown on demand —
// beside the insertion-order list. The zero value is an empty set.
type ItemSet struct {
	low   uint64   // bit x: item x is a member (0 <= x < 64)
	high  []uint64 // bit x%64 of word x/64-1: item x is a member (x >= 64)
	order []Item
}

// NewItemSet returns a set containing the given items.
func NewItemSet(items ...Item) *ItemSet {
	s := &ItemSet{}
	for _, it := range items {
		s.Add(it)
	}
	return s
}

// ItemSetOver returns an empty set that keeps its insertion-order list in
// buf's storage; outgrowing it reallocates, never writes past it.
func ItemSetOver(buf []Item) ItemSet { return ItemSet{order: buf[:0]} }

// Add inserts it; duplicates are ignored. A negative id panics (Item.Index).
func (s *ItemSet) Add(it Item) {
	w, bit := it.Index()>>6, uint64(1)<<(uint(it)&63)
	word := &s.low
	if w > 0 {
		if w > len(s.high) {
			s.high = append(s.high, make([]uint64, w-len(s.high))...)
		}
		word = &s.high[w-1]
	}
	if *word&bit != 0 {
		return
	}
	*word |= bit
	s.order = append(s.order, it)
}

// Has reports membership. A nil set contains nothing, and an id outside the
// set's range (negative ids included) is not a member.
//
//pcpda:alloc-free
func (s *ItemSet) Has(it Item) bool {
	if s == nil || it < 0 {
		return false
	}
	w, bit := int(it)>>6, uint64(1)<<(uint(it)&63)
	if w == 0 {
		return s.low&bit != 0
	}
	return w <= len(s.high) && s.high[w-1]&bit != 0
}

// Len returns the cardinality. A nil set has length 0.
func (s *ItemSet) Len() int {
	if s == nil {
		return 0
	}
	return len(s.order)
}

// Items returns the members in insertion order. The returned slice is a
// copy; mutating it does not affect the set.
func (s *ItemSet) Items() []Item {
	if s == nil {
		return nil
	}
	out := make([]Item, len(s.order))
	copy(out, s.order)
	return out
}

// Intersects reports whether s and t share any member. Either side may be
// nil. This is the check behind the paper's Table 1 side condition
// DataRead(T_L) ∩ WriteSet(T_H) = ∅.
func (s *ItemSet) Intersects(t *ItemSet) bool {
	if s == nil || t == nil {
		return false
	}
	if s.low&t.low != 0 {
		return true
	}
	for i := 0; i < len(s.high) && i < len(t.high); i++ {
		if s.high[i]&t.high[i] != 0 {
			return true
		}
	}
	return false
}

// Clone returns an independent copy of the set. Cloning nil yields an empty
// set.
func (s *ItemSet) Clone() *ItemSet {
	out := NewItemSet()
	if s == nil {
		return out
	}
	out.low = s.low
	out.high = append(out.high, s.high...)
	out.order = append(out.order, s.order...)
	return out
}

// Clear removes all members while keeping allocations.
//
//pcpda:alloc-free
func (s *ItemSet) Clear() {
	s.low = 0
	clear(s.high)
	s.order = s.order[:0]
}
