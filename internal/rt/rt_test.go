package rt

import (
	"testing"
	"testing/quick"
)

func TestPriorityDummy(t *testing.T) {
	if !Dummy.IsDummy() {
		t.Fatal("Dummy must report IsDummy")
	}
	if Priority(1).IsDummy() {
		t.Fatal("real priority must not be dummy")
	}
	if Priority(-3).IsDummy() != true {
		t.Fatal("negative priorities sit below the dummy floor and are dummy")
	}
	if got := Dummy.String(); got != "dummy" {
		t.Fatalf("Dummy.String() = %q, want dummy", got)
	}
}

func TestPriorityMax(t *testing.T) {
	cases := []struct{ a, b, want Priority }{
		{1, 2, 2},
		{2, 1, 2},
		{5, 5, 5},
		{Dummy, 3, 3},
		{3, Dummy, 3},
	}
	for _, c := range cases {
		if got := c.a.Max(c.b); got != c.want {
			t.Errorf("Max(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestPriorityMaxProperties(t *testing.T) {
	commutes := func(a, b int16) bool {
		pa, pb := Priority(a), Priority(b)
		return pa.Max(pb) == pb.Max(pa)
	}
	if err := quick.Check(commutes, nil); err != nil {
		t.Errorf("Max not commutative: %v", err)
	}
	idempotent := func(a int16) bool {
		pa := Priority(a)
		return pa.Max(pa) == pa
	}
	if err := quick.Check(idempotent, nil); err != nil {
		t.Errorf("Max not idempotent: %v", err)
	}
	upperBound := func(a, b int16) bool {
		pa, pb := Priority(a), Priority(b)
		m := pa.Max(pb)
		return m >= pa && m >= pb
	}
	if err := quick.Check(upperBound, nil); err != nil {
		t.Errorf("Max not an upper bound: %v", err)
	}
}

func TestModeConflicts(t *testing.T) {
	if Conflicts(Read, Read) {
		t.Error("read/read must not conflict")
	}
	if !Conflicts(Read, Write) || !Conflicts(Write, Read) || !Conflicts(Write, Write) {
		t.Error("any pair involving a write conflicts classically")
	}
	if Read.String() != "R" || Write.String() != "W" {
		t.Error("mode string rendering wrong")
	}
}

func TestCatalog(t *testing.T) {
	c := NewCatalog()
	x := c.Intern("x")
	y := c.Intern("y")
	if x == y {
		t.Fatal("distinct names must intern to distinct items")
	}
	if again := c.Intern("x"); again != x {
		t.Fatal("re-interning must be stable")
	}
	if got, ok := c.Lookup("y"); !ok || got != y {
		t.Fatal("lookup of interned name failed")
	}
	if _, ok := c.Lookup("z"); ok {
		t.Fatal("lookup of unknown name must fail")
	}
	if c.Name(x) != "x" || c.Name(y) != "y" {
		t.Fatal("names not preserved")
	}
	if c.Name(NoItem) != "<none>" {
		t.Fatalf("NoItem name = %q", c.Name(NoItem))
	}
	if c.Name(Item(99)) == "" {
		t.Fatal("unknown item must still render")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	names := c.Names()
	if len(names) != 2 || names[0] != "x" || names[1] != "y" {
		t.Fatalf("Names = %v", names)
	}
	names[0] = "mutated"
	if c.Name(x) != "x" {
		t.Fatal("Names must return a copy")
	}
}

func TestNilCatalogName(t *testing.T) {
	var c *Catalog
	if c.Name(Item(3)) != "item3" {
		t.Fatalf("nil catalog name = %q", c.Name(Item(3)))
	}
}

func TestItemSetBasics(t *testing.T) {
	s := NewItemSet(1, 2, 2, 3)
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3 (duplicates ignored)", s.Len())
	}
	if !s.Has(1) || !s.Has(2) || !s.Has(3) || s.Has(4) {
		t.Fatal("membership wrong")
	}
	items := s.Items()
	if len(items) != 3 || items[0] != 1 || items[1] != 2 || items[2] != 3 {
		t.Fatalf("Items = %v, want insertion order [1 2 3]", items)
	}
	items[0] = 99
	if !s.Has(1) {
		t.Fatal("Items must return a copy")
	}
}

func TestItemSetNilSafety(t *testing.T) {
	var s *ItemSet
	if s.Has(1) {
		t.Fatal("nil set has no members")
	}
	if s.Len() != 0 {
		t.Fatal("nil set is empty")
	}
	if s.Items() != nil {
		t.Fatal("nil set yields nil items")
	}
	if s.Intersects(NewItemSet(1)) {
		t.Fatal("nil set intersects nothing")
	}
	if NewItemSet(1).Intersects(s) {
		t.Fatal("nothing intersects the nil set")
	}
	if got := s.Clone(); got == nil || got.Len() != 0 {
		t.Fatal("cloning nil yields an empty set")
	}
}

func TestItemSetIntersects(t *testing.T) {
	a := NewItemSet(1, 2, 3)
	b := NewItemSet(3, 4)
	c := NewItemSet(4, 5)
	if !a.Intersects(b) || !b.Intersects(a) {
		t.Fatal("a and b share 3")
	}
	if a.Intersects(c) || c.Intersects(a) {
		t.Fatal("a and c are disjoint")
	}
	if NewItemSet().Intersects(a) {
		t.Fatal("empty set intersects nothing")
	}
}

func TestItemSetCloneIndependence(t *testing.T) {
	a := NewItemSet(1, 2)
	b := a.Clone()
	b.Add(3)
	if a.Has(3) {
		t.Fatal("clone must be independent")
	}
	if !b.Has(1) || !b.Has(2) || !b.Has(3) {
		t.Fatal("clone must carry members")
	}
}

func TestItemSetClear(t *testing.T) {
	a := NewItemSet(1, 2)
	a.Clear()
	if a.Len() != 0 || a.Has(1) {
		t.Fatal("clear must empty the set")
	}
	a.Add(7)
	if !a.Has(7) || a.Len() != 1 {
		t.Fatal("set must be reusable after clear")
	}
}

func TestItemSetIntersectsProperty(t *testing.T) {
	// Intersection is symmetric and consistent with explicit membership scan.
	f := func(xs, ys []uint8) bool {
		a, b := NewItemSet(), NewItemSet()
		for _, x := range xs {
			a.Add(Item(x % 32))
		}
		for _, y := range ys {
			b.Add(Item(y % 32))
		}
		want := false
		for _, it := range a.Items() {
			if b.Has(it) {
				want = true
				break
			}
		}
		return a.Intersects(b) == want && b.Intersects(a) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
