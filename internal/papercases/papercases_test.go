package papercases

import (
	"testing"

	"pcpda/internal/rt"
	"pcpda/internal/txn"
)

func TestAllExamplesValidate(t *testing.T) {
	for _, build := range []func() *txn.Set{Example1, Example3, Example4, Example5, LC4Deadlock} {
		set := build()
		if err := set.Validate(); err != nil {
			t.Errorf("%s: %v", set.Name, err)
		}
	}
}

func TestExample1Shape(t *testing.T) {
	s := Example1()
	if len(s.Templates) != 3 {
		t.Fatal("Example 1 has three transactions")
	}
	t3 := s.ByName("T3")
	if t3.Exec() != 3 || t3.Offset != 0 {
		t.Fatalf("T3 = C%d @%d", t3.Exec(), t3.Offset)
	}
	x, _ := s.Catalog.Lookup("x")
	y, _ := s.Catalog.Lookup("y")
	ceil := txn.ComputeCeilings(s)
	// The paper's setup: x is written by T3 and read by T1 (Aceil(x)=P1);
	// y is only read, so its write ceiling is the dummy level.
	if ceil.Aceil(x) != s.ByName("T1").Priority {
		t.Errorf("Aceil(x) = %v", ceil.Aceil(x))
	}
	if !ceil.Wceil(y).IsDummy() {
		t.Errorf("Wceil(y) = %v, want dummy", ceil.Wceil(y))
	}
}

func TestExample3Shape(t *testing.T) {
	s := Example3()
	t1, t2 := s.ByName("T1"), s.ByName("T2")
	if t1.Period != 5 || t1.Offset != 1 || t1.Exec() != 2 {
		t.Fatalf("T1 = Pd%d @%d C%d", t1.Period, t1.Offset, t1.Exec())
	}
	if !t2.OneShot() || t2.Exec() != 5 {
		t.Fatalf("T2 = C%d oneshot=%v", t2.Exec(), t2.OneShot())
	}
	ceil := txn.ComputeCeilings(s)
	x, _ := s.Catalog.Lookup("x")
	y, _ := s.Catalog.Lookup("y")
	// Wceil(x) = Wceil(y) = P2, as the paper states.
	if ceil.Wceil(x) != t2.Priority || ceil.Wceil(y) != t2.Priority {
		t.Errorf("Wceil = %v/%v, want P2", ceil.Wceil(x), ceil.Wceil(y))
	}
}

func TestExample4Ceilings(t *testing.T) {
	s := Example4()
	ceil := txn.ComputeCeilings(s)
	x, _ := s.Catalog.Lookup("x")
	y, _ := s.Catalog.Lookup("y")
	z, _ := s.Catalog.Lookup("z")
	// Writers: x by T4, y by T2, z by T3 (and x is read by T1: Aceil=P1).
	if ceil.Wceil(x) != s.ByName("T4").Priority {
		t.Errorf("Wceil(x) = %v", ceil.Wceil(x))
	}
	if ceil.Wceil(y) != s.ByName("T2").Priority {
		t.Errorf("Wceil(y) = %v", ceil.Wceil(y))
	}
	if ceil.Wceil(z) != s.ByName("T3").Priority {
		t.Errorf("Wceil(z) = %v", ceil.Wceil(z))
	}
	if ceil.Aceil(x) != s.ByName("T1").Priority {
		t.Errorf("Aceil(x) = %v", ceil.Aceil(x))
	}
}

func TestExample5Ceilings(t *testing.T) {
	s := Example5()
	ceil := txn.ComputeCeilings(s)
	x, _ := s.Catalog.Lookup("x")
	y, _ := s.Catalog.Lookup("y")
	// Wceil(x) = P_H (TH writes x), Wceil(y) = P_L (TL writes y).
	if ceil.Wceil(x) != s.ByName("TH").Priority {
		t.Errorf("Wceil(x) = %v", ceil.Wceil(x))
	}
	if ceil.Wceil(y) != s.ByName("TL").Priority {
		t.Errorf("Wceil(y) = %v", ceil.Wceil(y))
	}
}

func TestGoldenRowWidthsMatchHorizons(t *testing.T) {
	cases := []struct {
		rows    []string
		horizon rt.Ticks
	}{
		{[]string{Fig1RowT1, Fig1RowT2, Fig1RowT3, Ex1PCPDARowT1, Ex1PCPDARowT2, Ex1PCPDARowT3}, Example1Horizon},
		{[]string{Fig2RowT1, Fig2RowT2, Fig3RowT1, Fig3RowT2}, Example3Horizon},
		{[]string{Fig4RowT1, Fig4RowT2, Fig4RowT3, Fig4RowT4, Fig5RowT1, Fig5RowT2, Fig5RowT3, Fig5RowT4}, Example4Horizon},
		{[]string{Ex5PCPDARowTH, Ex5PCPDARowTL}, Example5Horizon},
	}
	for i, c := range cases {
		for j, row := range c.rows {
			if rt.Ticks(len(row)) != c.horizon {
				t.Errorf("case %d row %d: width %d != horizon %d", i, j, len(row), c.horizon)
			}
		}
	}
}
