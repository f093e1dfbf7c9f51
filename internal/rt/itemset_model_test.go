package rt

import (
	"math/rand"
	"strings"
	"testing"

	"pcpda/internal/testenv"
)

// mapSet is the reference model: ItemSet as it was when membership was a Go
// map beside the insertion-order list.
type mapSet struct {
	members map[Item]struct{}
	order   []Item
}

func newMapSet() *mapSet { return &mapSet{members: map[Item]struct{}{}} }

func (s *mapSet) add(it Item) {
	if _, ok := s.members[it]; ok {
		return
	}
	s.members[it] = struct{}{}
	s.order = append(s.order, it)
}

func (s *mapSet) intersects(t *mapSet) bool {
	for it := range s.members {
		if _, ok := t.members[it]; ok {
			return true
		}
	}
	return false
}

func (s *mapSet) clone() *mapSet {
	out := newMapSet()
	for _, it := range s.order {
		out.add(it)
	}
	return out
}

// agree checks every observable of got against the model over items
// -2..maxItem+2 (both boundaries of the range included).
func agree(t *testing.T, ctx string, got *ItemSet, want *mapSet, maxItem Item) {
	t.Helper()
	if got.Len() != len(want.members) {
		t.Fatalf("%s: Len=%d want %d", ctx, got.Len(), len(want.members))
	}
	items := got.Items()
	if len(items) != len(want.order) {
		t.Fatalf("%s: Items=%v want %v", ctx, items, want.order)
	}
	for i := range items {
		if items[i] != want.order[i] {
			t.Fatalf("%s: Items=%v want %v (insertion order)", ctx, items, want.order)
		}
	}
	for it := Item(-2); it <= maxItem+2; it++ {
		if _, in := want.members[it]; got.Has(it) != in {
			t.Fatalf("%s: Has(%d)=%v want %v", ctx, it, got.Has(it), in)
		}
	}
}

// TestItemSetVsMapModel drives random operation sequences over items 0..300
// — across the inline word, the first grown word and several growth steps —
// against the map model.
func TestItemSetVsMapModel(t *testing.T) {
	const maxItem = 300
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Two sets so Intersects has a partner; b starts over caller storage
		// it will outgrow.
		var bSet = ItemSetOver(make([]Item, 0, 3))
		sets := [2]*ItemSet{NewItemSet(), &bSet}
		models := [2]*mapSet{newMapSet(), newMapSet()}
		pick := func() Item {
			if rng.Intn(2) == 0 {
				return Item(rng.Intn(8)) // collide often
			}
			return Item(rng.Intn(maxItem + 1))
		}
		for step := 0; step < 600; step++ {
			i := rng.Intn(2)
			switch op := rng.Intn(20); {
			case op < 14:
				it := pick()
				sets[i].Add(it)
				models[i].add(it)
			case op < 16:
				sets[i].Clear()
				models[i] = newMapSet()
			case op < 18:
				// A clone is independent: mutate it, the original must not move.
				c, cm := sets[i].Clone(), models[i].clone()
				it := pick()
				c.Add(it)
				cm.add(it)
				agree(t, "clone", c, cm, maxItem)
			default:
				if got, want := sets[0].Intersects(sets[1]), models[0].intersects(models[1]); got != want {
					t.Fatalf("seed %d step %d: Intersects=%v want %v", seed, step, got, want)
				}
				if sets[0].Intersects(sets[1]) != sets[1].Intersects(sets[0]) {
					t.Fatalf("seed %d step %d: Intersects not symmetric", seed, step)
				}
			}
			agree(t, "set", sets[i], models[i], maxItem)
		}
	}
}

// TestItemSetOverNeverWritesPastItsStorage: a set handed cap-2 storage and
// given three members must leave the neighbouring element of the slab alone.
func TestItemSetOverNeverWritesPastItsStorage(t *testing.T) {
	slab := []Item{7, 7, 7, 7}
	s := ItemSetOver(slab[0:0:2])
	s.Add(1)
	s.Add(2)
	s.Add(3)
	if slab[2] != 7 || slab[3] != 7 {
		t.Fatalf("set wrote past its storage: slab=%v", slab)
	}
	if got := s.Items(); len(got) != 3 || got[2] != 3 {
		t.Fatalf("Items=%v", got)
	}
}

// TestItemSetBoundary: ids outside any catalog are absent to a query and a
// named panic to a mutation — never a runtime index error.
func TestItemSetBoundary(t *testing.T) {
	s := NewItemSet(0, 63, 64)
	for _, it := range []Item{-1, NoItem, -1 << 31, 65, 1 << 30} {
		if s.Has(it) {
			t.Errorf("Has(%d) = true", it)
		}
	}
	if len(s.high) != 1 {
		t.Fatalf("queries grew the bitset to %d words", len(s.high))
	}
	mustPanicNamed(t, func() { s.Add(-1) })
	mustPanicNamed(t, func() { Item(-5).Index() })
}

func mustPanicNamed(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		msg, ok := recover().(string)
		if !ok || !strings.HasPrefix(msg, "rt: negative item id") {
			t.Fatalf("want the named rt.Item.Index panic, got %v", msg)
		}
	}()
	fn()
}

// TestItemSetWarmOpsAllocateNothing: once a set has held its high-water
// membership, Add, Has and Clear cost no allocation.
func TestItemSetWarmOpsAllocateNothing(t *testing.T) {
	if testenv.Race {
		t.Skip("the race runtime allocates")
	}
	s := NewItemSet()
	cycle := func() {
		for it := Item(0); it < 130; it += 13 {
			s.Add(it)
		}
		if !s.Has(26) || s.Has(27) {
			t.Fatal("membership wrong")
		}
		s.Clear()
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("warm Add/Has/Clear allocate %v per cycle, want 0", allocs)
	}
}
