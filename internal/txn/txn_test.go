package txn

import (
	"strings"
	"testing"

	"pcpda/internal/rt"
)

// buildExample4 reproduces the paper's Example 4 transaction set:
// T1: Read(x); T2: Write(y); T3: Read(z), Write(z); T4: Read(y), Write(x).
func buildExample4(t *testing.T) (*Set, rt.Item, rt.Item, rt.Item) {
	t.Helper()
	s := NewSet("example4")
	x := s.Catalog.Intern("x")
	y := s.Catalog.Intern("y")
	z := s.Catalog.Intern("z")
	s.Add(&Template{Name: "T1", Steps: []Step{Read(x), Comp(1)}})
	s.Add(&Template{Name: "T2", Steps: []Step{Write(y), Comp(1)}})
	s.Add(&Template{Name: "T3", Steps: []Step{Read(z), Write(z)}})
	s.Add(&Template{Name: "T4", Steps: []Step{Read(y), Comp(1), Write(x), Comp(2)}})
	s.AssignByIndex()
	return s, x, y, z
}

func TestReadWriteSets(t *testing.T) {
	s, x, y, z := buildExample4(t)
	t4 := s.ByName("T4")
	if !t4.ReadSet().Has(y) || t4.ReadSet().Has(x) {
		t.Errorf("T4 read set wrong: %v", t4.ReadSet().Items())
	}
	if !t4.WriteSet().Has(x) || t4.WriteSet().Has(y) {
		t.Errorf("T4 write set wrong: %v", t4.WriteSet().Items())
	}
	t3 := s.ByName("T3")
	if !t3.ReadSet().Has(z) || !t3.WriteSet().Has(z) {
		t.Error("T3 must both read and write z")
	}
	acc := t4.AccessSet()
	if !acc.Has(x) || !acc.Has(y) || acc.Has(z) {
		t.Errorf("T4 access set wrong: %v", acc.Items())
	}
}

func TestExecTotals(t *testing.T) {
	s, _, _, _ := buildExample4(t)
	want := map[string]rt.Ticks{"T1": 2, "T2": 2, "T3": 2, "T4": 5}
	for name, c := range want {
		if got := s.ByName(name).Exec(); got != c {
			t.Errorf("%s Exec = %d, want %d", name, got, c)
		}
	}
}

func TestAssignByIndex(t *testing.T) {
	s, _, _, _ := buildExample4(t)
	t1, t4 := s.ByName("T1"), s.ByName("T4")
	if t1.Priority <= t4.Priority {
		t.Fatalf("T1 (%d) must outrank T4 (%d)", t1.Priority, t4.Priority)
	}
	if t1.Priority != 4 || t4.Priority != 1 {
		t.Fatalf("expected priorities 4..1, got T1=%d T4=%d", t1.Priority, t4.Priority)
	}
}

func TestCeilingsExample4(t *testing.T) {
	s, x, y, z := buildExample4(t)
	c := ComputeCeilings(s)
	// Writers: x by T4 (P1... in paper numbering), y by T2, z by T3.
	if got := c.Wceil(x); got != s.ByName("T4").Priority {
		t.Errorf("Wceil(x) = %v, want T4's priority", got)
	}
	if got := c.Wceil(y); got != s.ByName("T2").Priority {
		t.Errorf("Wceil(y) = %v, want T2's priority", got)
	}
	if got := c.Wceil(z); got != s.ByName("T3").Priority {
		t.Errorf("Wceil(z) = %v, want T3's priority", got)
	}
	// Absolute ceilings: x is read by T1 (highest), y read by T4 but written
	// by T2 (T2 higher), z only accessed by T3.
	if got := c.Aceil(x); got != s.ByName("T1").Priority {
		t.Errorf("Aceil(x) = %v, want T1's priority", got)
	}
	if got := c.Aceil(y); got != s.ByName("T2").Priority {
		t.Errorf("Aceil(y) = %v, want T2's priority", got)
	}
	if got := c.Aceil(z); got != s.ByName("T3").Priority {
		t.Errorf("Aceil(z) = %v, want T3's priority", got)
	}
}

func TestCeilingsUnknownItemIsDummy(t *testing.T) {
	s, _, _, _ := buildExample4(t)
	c := ComputeCeilings(s)
	if !c.Wceil(rt.Item(77)).IsDummy() || !c.Aceil(rt.Item(77)).IsDummy() {
		t.Error("unaccessed items must have dummy ceilings")
	}
}

// TestCeilingsHostileIDs: the ceilings are slices indexed by item id, and the
// accessors are what every lock request calls with an id that may have come
// off the wire — any id outside the tables has the dummy ceiling, as it had
// when the tables were maps.
func TestCeilingsHostileIDs(t *testing.T) {
	s, _, _, _ := buildExample4(t)
	c := ComputeCeilings(s)
	if len(c.WceilTable()) != s.Catalog.Len() || len(c.AceilTable()) != s.Catalog.Len() {
		t.Fatalf("tables of %d and %d entries over %d items", len(c.WceilTable()), len(c.AceilTable()), s.Catalog.Len())
	}
	for _, x := range []rt.Item{-1, rt.NoItem, -1 << 31, rt.Item(len(c.WceilTable())), 1 << 30} {
		if w, a := c.Wceil(x), c.Aceil(x); w != rt.Dummy || a != rt.Dummy {
			t.Errorf("item %d: Wceil %v, Aceil %v, want the dummy ceiling", x, w, a)
		}
	}
}

func TestCeilingReadOnlyItem(t *testing.T) {
	s := NewSet("ro")
	x := s.Catalog.Intern("x")
	s.Add(&Template{Name: "A", Steps: []Step{Read(x)}})
	s.Add(&Template{Name: "B", Steps: []Step{Read(x)}})
	s.AssignByIndex()
	c := ComputeCeilings(s)
	if !c.Wceil(x).IsDummy() {
		t.Error("item nobody writes must have dummy Wceil (the paper's Aceil(y)=dummy case)")
	}
	if c.Aceil(x) != s.ByName("A").Priority {
		t.Error("Aceil of read-only item is the highest reader priority")
	}
}

func TestRateMonotonicAssignment(t *testing.T) {
	s := NewSet("rm")
	x := s.Catalog.Intern("x")
	s.Add(&Template{Name: "slow", Period: 100, Steps: []Step{Read(x)}})
	s.Add(&Template{Name: "fast", Period: 10, Steps: []Step{Read(x)}})
	s.Add(&Template{Name: "mid", Period: 50, Steps: []Step{Read(x)}})
	s.AssignRateMonotonic()
	f, m, sl := s.ByName("fast"), s.ByName("mid"), s.ByName("slow")
	if !(f.Priority > m.Priority && m.Priority > sl.Priority) {
		t.Fatalf("RM order wrong: fast=%d mid=%d slow=%d", f.Priority, m.Priority, sl.Priority)
	}
}

func TestRateMonotonicTieStable(t *testing.T) {
	s := NewSet("tie")
	x := s.Catalog.Intern("x")
	s.Add(&Template{Name: "a", Period: 10, Steps: []Step{Read(x)}})
	s.Add(&Template{Name: "b", Period: 10, Steps: []Step{Read(x)}})
	s.AssignRateMonotonic()
	if s.ByName("a").Priority <= s.ByName("b").Priority {
		t.Fatal("equal periods must break ties by declaration order")
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("tied periods still yield a total priority order: %v", err)
	}
}

func TestRateMonotonicOneShotRankedLast(t *testing.T) {
	s := NewSet("osl")
	x := s.Catalog.Intern("x")
	s.Add(&Template{Name: "bg", Steps: []Step{Read(x)}}) // one-shot, no deadline
	s.Add(&Template{Name: "periodic", Period: 10, Steps: []Step{Read(x)}})
	s.Add(&Template{Name: "urgent", Deadline: 5, Steps: []Step{Read(x)}}) // one-shot with deadline
	s.AssignRateMonotonic()
	if !(s.ByName("urgent").Priority > s.ByName("periodic").Priority) {
		t.Error("one-shot with deadline 5 outranks period 10")
	}
	if !(s.ByName("periodic").Priority > s.ByName("bg").Priority) {
		t.Error("deadline-less one-shot ranks last")
	}
}

func TestValidateCatchesProblems(t *testing.T) {
	mk := func(mut func(*Set)) error {
		s := NewSet("v")
		x := s.Catalog.Intern("x")
		s.Add(&Template{Name: "T1", Period: 10, Steps: []Step{Read(x)}})
		s.Add(&Template{Name: "T2", Period: 20, Steps: []Step{Write(x)}})
		s.AssignByIndex()
		mut(s)
		return s.Validate()
	}
	if err := mk(func(s *Set) {}); err != nil {
		t.Fatalf("baseline set must validate: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Set)
		frag string
	}{
		{"empty name", func(s *Set) { s.Templates[0].Name = "" }, "empty name"},
		{"no steps", func(s *Set) { s.Templates[0].Steps = nil }, "no steps"},
		{"zero duration", func(s *Set) { s.Templates[0].Steps = []Step{{Kind: Compute, Item: rt.NoItem}} }, "duration"},
		{"compute with item", func(s *Set) { s.Templates[0].Steps = []Step{{Kind: Compute, Item: 0, Dur: 1}} }, "names an item"},
		{"dup names", func(s *Set) { s.Templates[1].Name = "T1" }, "duplicate"},
		{"dup priority", func(s *Set) { s.Templates[1].Priority = s.Templates[0].Priority }, "total order"},
		{"missing priority", func(s *Set) { s.Templates[1].Priority = rt.Dummy }, "not assigned"},
		{"negative period", func(s *Set) { s.Templates[0].Period = -1 }, "negative"},
		{"negative item", func(s *Set) { s.Templates[0].Steps = []Step{Read(-2)} }, "without item"},
		{"item just past the catalog", func(s *Set) { s.Templates[0].Steps = []Step{Read(1)} }, "not in the catalog"},
		{"item far past the catalog", func(s *Set) { s.Templates[1].Steps = []Step{Write(1 << 30)} }, "not in the catalog"},
		{"no catalog", func(s *Set) { s.Catalog = nil }, "not in the catalog"},
		{"exec > period", func(s *Set) {
			s.Templates[0].Steps = []Step{Comp(50)}
			s.Templates[0].readSet = nil // force re-derivation
		}, "exceeds period"},
	}
	for _, c := range cases {
		if err := mk(c.mut); err == nil {
			t.Errorf("%s: expected error", c.name)
		} else if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.frag)
		}
	}
}

func TestValidateEmptySet(t *testing.T) {
	if err := NewSet("e").Validate(); err == nil {
		t.Fatal("empty set must not validate")
	}
}

func TestSignature(t *testing.T) {
	s, _, _, _ := buildExample4(t)
	if got := s.ByName("T4").Signature(s.Catalog); got != "Read(y), Write(x)" {
		t.Errorf("T4 signature = %q", got)
	}
	if got := s.ByName("T3").Signature(s.Catalog); got != "Read(z), Write(z)" {
		t.Errorf("T3 signature = %q", got)
	}
	pure := &Template{Name: "pure", Steps: []Step{Comp(3)}}
	if got := pure.Signature(s.Catalog); got != "(no data access)" {
		t.Errorf("pure signature = %q", got)
	}
}

func TestUtilizationAndHyperperiod(t *testing.T) {
	s := NewSet("u")
	x := s.Catalog.Intern("x")
	s.Add(&Template{Name: "A", Period: 4, Steps: []Step{Read(x), Comp(1)}})  // 2/4
	s.Add(&Template{Name: "B", Period: 6, Steps: []Step{Write(x), Comp(2)}}) // 3/6
	s.AssignRateMonotonic()
	if got := s.Utilization(); got < 0.999 || got > 1.001 {
		t.Errorf("utilization = %v, want 1.0", got)
	}
	if got := s.Hyperperiod(); got != 12 {
		t.Errorf("hyperperiod = %d, want 12", got)
	}
}

func TestHyperperiodNoPeriodic(t *testing.T) {
	s := NewSet("h")
	x := s.Catalog.Intern("x")
	s.Add(&Template{Name: "A", Steps: []Step{Read(x)}})
	if got := s.Hyperperiod(); got != 0 {
		t.Errorf("hyperperiod of one-shot set = %d, want 0", got)
	}
}

func TestRelativeDeadlineDefaultsToPeriod(t *testing.T) {
	tm := &Template{Name: "T", Period: 5, Steps: []Step{Comp(1)}}
	if tm.RelativeDeadline() != 5 {
		t.Error("deadline defaults to period")
	}
	tm.Deadline = 3
	if tm.RelativeDeadline() != 3 {
		t.Error("explicit deadline wins")
	}
	one := &Template{Name: "O", Steps: []Step{Comp(1)}}
	if one.RelativeDeadline() != 0 {
		t.Error("one-shot without deadline has none")
	}
}

func TestByPriorityDesc(t *testing.T) {
	s := NewSet("o")
	x := s.Catalog.Intern("x")
	s.Add(&Template{Name: "low", Period: 30, Steps: []Step{Read(x)}})
	s.Add(&Template{Name: "high", Period: 3, Steps: []Step{Read(x)}})
	s.Add(&Template{Name: "mid", Period: 10, Steps: []Step{Read(x)}})
	s.AssignRateMonotonic()
	order := s.ByPriorityDesc()
	if order[0].Name != "high" || order[1].Name != "mid" || order[2].Name != "low" {
		t.Fatalf("order wrong: %s %s %s", order[0].Name, order[1].Name, order[2].Name)
	}
	// Receiver untouched.
	if s.Templates[0].Name != "low" {
		t.Fatal("ByPriorityDesc must not reorder the set")
	}
}

func TestStepConstructors(t *testing.T) {
	if s := Read(3); s.Kind != ReadStep || s.Item != 3 || s.Dur != 1 {
		t.Error("Read constructor wrong")
	}
	if s := Write(4); s.Kind != WriteStep || s.Item != 4 || s.Dur != 1 {
		t.Error("Write constructor wrong")
	}
	if s := Comp(7); s.Kind != Compute || s.Item != rt.NoItem || s.Dur != 7 {
		t.Error("Comp constructor wrong")
	}
	if ReadStep.String() != "R" || WriteStep.String() != "W" || Compute.String() != "C" || StepKind(9).String() != "?" {
		t.Error("StepKind strings wrong")
	}
}
