package analysis

import (
	"math"
	"testing"

	"pcpda/internal/txn"
	"pcpda/internal/workload"
)

// section9Set models the paper's Section 9 comparison point: a transaction
// T_L that only WRITES a high-ceiling item blocks T_H under RW-PCP but not
// under PCP-DA.
//
//	T1 (P=3): Read(x)          period 10, C=2
//	T2 (P=2): Read(y)          period 20, C=3
//	T3 (P=1): Write(x), Read(y) period 40, C=4
//
// Aceil(x)=P1, Wceil(x)=P3, Wceil(y)=dummy... y is read-only: Wceil(y)
// dummy, so T3's read of y cannot block anyone; T3's write of x has
// Aceil(x)=P1 ≥ P1: T3 ∈ BTS_1(RW-PCP); under PCP-DA T3 reads only y with
// Wceil dummy → BTS_1(PCP-DA) = ∅.
func section9Set(t *testing.T) *txn.Set {
	t.Helper()
	s := txn.NewSet("sec9")
	x := s.Catalog.Intern("x")
	y := s.Catalog.Intern("y")
	s.Add(&txn.Template{Name: "T1", Period: 10, Steps: []txn.Step{txn.Read(x), txn.Comp(1)}})
	s.Add(&txn.Template{Name: "T2", Period: 20, Steps: []txn.Step{txn.Read(y), txn.Comp(2)}})
	s.Add(&txn.Template{Name: "T3", Period: 40, Steps: []txn.Step{txn.Write(x), txn.Read(y), txn.Comp(2)}})
	s.AssignRateMonotonic()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestBTSSection9(t *testing.T) {
	s := section9Set(t)
	ceil := txn.ComputeCeilings(s)
	t1 := s.ByName("T1")

	da := BTS(s, ceil, PCPDA, t1)
	if len(da) != 0 {
		t.Errorf("BTS_1(PCP-DA) = %v, want empty (T3 reads only a writer-less item)", names(da))
	}
	rw := BTS(s, ceil, RWPCP, t1)
	if len(rw) != 1 || rw[0].Name != "T3" {
		t.Errorf("BTS_1(RW-PCP) = %v, want [T3]", names(rw))
	}
	if !SubsetOf(da, rw) {
		t.Error("BTS(PCP-DA) ⊄ BTS(RW-PCP)")
	}
}

func TestWorstCaseBlockingSection9(t *testing.T) {
	s := section9Set(t)
	ceil := txn.ComputeCeilings(s)
	t1 := s.ByName("T1")
	if b := WorstCaseBlocking(s, ceil, PCPDA, t1); b != 0 {
		t.Errorf("B_1(PCP-DA) = %d, want 0", b)
	}
	if b := WorstCaseBlocking(s, ceil, RWPCP, t1); b != 4 {
		t.Errorf("B_1(RW-PCP) = %d, want C3 = 4", b)
	}
	if b := WorstCaseBlocking(s, ceil, OPCP, t1); b != 4 {
		t.Errorf("B_1(PCP) = %d, want 4", b)
	}
}

func TestPIPBlockingSums(t *testing.T) {
	// Two lower-priority conflicting transactions both count under PIP.
	s := txn.NewSet("pipsum")
	x := s.Catalog.Intern("x")
	y := s.Catalog.Intern("y")
	s.Add(&txn.Template{Name: "H", Period: 20, Steps: []txn.Step{txn.Write(x), txn.Write(y)}})
	s.Add(&txn.Template{Name: "M", Period: 40, Steps: []txn.Step{txn.Read(x), txn.Comp(2)}})
	s.Add(&txn.Template{Name: "L", Period: 80, Steps: []txn.Step{txn.Read(y), txn.Comp(3)}})
	s.AssignRateMonotonic()
	ceil := txn.ComputeCeilings(s)
	h := s.ByName("H")
	if b := WorstCaseBlocking(s, ceil, PIP, h); b != 7 {
		t.Errorf("B(PIP) = %d, want C_M + C_L = 7", b)
	}
	// The ceiling protocols bound it by a single C.
	if b := WorstCaseBlocking(s, ceil, RWPCP, h); b != 4 {
		t.Errorf("B(RW-PCP) = %d, want max(3,4) = 4", b)
	}
}

func TestPIPPushThroughBlocking(t *testing.T) {
	// L conflicts only with H (the top-priority transaction). While L
	// inherits H's priority it delays N, which shares no data with L at
	// all: push-through blocking. N's PIP blocking set must contain L.
	// Conversely L cannot delay anyone above the priority it can inherit,
	// so H's set contains L only via the direct conflict.
	s := txn.NewSet("push")
	x := s.Catalog.Intern("x")
	y := s.Catalog.Intern("y")
	s.Add(&txn.Template{Name: "H", Period: 10, Steps: []txn.Step{txn.Write(x), txn.Comp(1)}})
	s.Add(&txn.Template{Name: "N", Period: 20, Steps: []txn.Step{txn.Read(y), txn.Comp(1)}})
	s.Add(&txn.Template{Name: "L", Period: 40, Steps: []txn.Step{txn.Read(x), txn.Comp(1)}})
	s.AssignRateMonotonic()
	ceil := txn.ComputeCeilings(s)
	n := s.ByName("N")
	bts := BTS(s, ceil, PIP, n)
	if len(bts) != 1 || bts[0].Name != "L" {
		t.Errorf("PIP BTS(N) = %v, want [L] (push-through)", names(bts))
	}
	h := s.ByName("H")
	bh := BTS(s, ceil, PIP, h)
	if len(bh) != 1 || bh[0].Name != "L" {
		t.Errorf("PIP BTS(H) = %v, want [L] (direct)", names(bh))
	}
}

func TestLiuLaylandBound(t *testing.T) {
	if LiuLaylandBound(1) != 1 {
		t.Errorf("bound(1) = %v", LiuLaylandBound(1))
	}
	if got := LiuLaylandBound(2); math.Abs(got-0.8284) > 1e-3 {
		t.Errorf("bound(2) = %v", got)
	}
	// Monotone decreasing to ln 2.
	prev := math.Inf(1)
	for i := 1; i <= 64; i++ {
		b := LiuLaylandBound(i)
		if b >= prev {
			t.Fatalf("bound not decreasing at %d", i)
		}
		prev = b
	}
	if prev < math.Ln2-1e-6 {
		t.Errorf("bound(64) = %v below ln 2", prev)
	}
	if LiuLaylandBound(0) != 0 {
		t.Error("bound(0) must be 0")
	}
}

func TestRMTestPaperCondition(t *testing.T) {
	// The Section 9 set is schedulable under PCP-DA; under RW-PCP T1's
	// blocking term B_1 = 4 pushes T1's test over: 2/10 + 4/10 = 0.6 < 1
	// — still fine; make the demand tighter to split the verdicts.
	s := txn.NewSet("split")
	x := s.Catalog.Intern("x")
	y := s.Catalog.Intern("y")
	s.Add(&txn.Template{Name: "T1", Period: 10, Steps: []txn.Step{txn.Read(x), txn.Comp(6)}})
	s.Add(&txn.Template{Name: "T2", Period: 50, Steps: []txn.Step{txn.Write(x), txn.Read(y), txn.Comp(4)}})
	s.AssignRateMonotonic()
	// PCP-DA: B_1 = 0 (T2 reads y, Wceil(y)=dummy) → T1: 0.7 ≤ 1.0 OK.
	da, err := RMTest(s, PCPDA)
	if err != nil {
		t.Fatal(err)
	}
	if !da.Verdicts[0].OK {
		t.Errorf("PCP-DA T1 verdict: %+v", da.Verdicts[0])
	}
	// RW-PCP: B_1 = C_2 = 6 → 0.7 + 0.6 = 1.3 > 1.0 → fails.
	rw, err := RMTest(s, RWPCP)
	if err != nil {
		t.Fatal(err)
	}
	if rw.Verdicts[0].OK {
		t.Errorf("RW-PCP T1 verdict should fail: %+v", rw.Verdicts[0])
	}
	if rw.Schedulable || !da.Schedulable {
		t.Errorf("schedulable: rw=%v da=%v, want false/true", rw.Schedulable, da.Schedulable)
	}
}

func TestRMTestRejectsOneShot(t *testing.T) {
	s := txn.NewSet("os")
	x := s.Catalog.Intern("x")
	s.Add(&txn.Template{Name: "A", Steps: []txn.Step{txn.Read(x)}})
	s.AssignByIndex()
	if _, err := RMTest(s, PCPDA); err == nil {
		t.Fatal("one-shot set must be rejected")
	}
}

func TestResponseTimeSharperThanRM(t *testing.T) {
	// A set that fails the utilization bound but passes exact analysis:
	// two transactions with U ≈ 0.9 > 0.828 yet trivially schedulable.
	s := txn.NewSet("sharp")
	x := s.Catalog.Intern("x")
	s.Add(&txn.Template{Name: "A", Period: 10, Steps: []txn.Step{txn.Read(x), txn.Comp(4)}})
	s.Add(&txn.Template{Name: "B", Period: 20, Steps: []txn.Step{txn.Read(x), txn.Comp(7)}})
	s.AssignRateMonotonic()
	rm, err := RMTest(s, PCPDA)
	if err != nil {
		t.Fatal(err)
	}
	if rm.Schedulable {
		t.Fatalf("expected the LL bound to fail at U=0.9: %+v", rm.Verdicts)
	}
	rta, err := ResponseTimeTest(s, PCPDA)
	if err != nil {
		t.Fatal(err)
	}
	if !rta.Schedulable {
		t.Fatalf("exact analysis should pass: %+v", rta.Verdicts)
	}
	// Response times: R_A = 5; R_B = 8 + ceil(R/10)*5 → 18.
	if rta.Verdicts[0].Response != 5 || rta.Verdicts[1].Response != 18 {
		t.Errorf("responses = %d, %d; want 5, 18", rta.Verdicts[0].Response, rta.Verdicts[1].Response)
	}
}

func TestDeadlineMonotonicWithResponseTime(t *testing.T) {
	// ResponseTimeTest honours D < T: a set schedulable under deadline-
	// monotonic priorities but not rate-monotonic ones (the short-deadline
	// long-period transaction starves under RM).
	s := txn.NewSet("dmrta")
	x := s.Catalog.Intern("x")
	s.Add(&txn.Template{Name: "urgent", Period: 100, Deadline: 4, Steps: []txn.Step{txn.Read(x), txn.Comp(2)}})
	s.Add(&txn.Template{Name: "frequent", Period: 10, Steps: []txn.Step{txn.Read(x), txn.Comp(4)}})
	s.AssignRateMonotonic() // frequent outranks urgent
	rm, err := ResponseTimeTest(s, PCPDA)
	if err != nil {
		t.Fatal(err)
	}
	if rm.Schedulable {
		t.Fatalf("urgent (D=4, preempted by frequent's 5) should fail under RM: %+v", rm.Verdicts)
	}
	s.ByName("urgent").Priority, s.ByName("frequent").Priority = 2, 1 // deadline-monotonic
	dm, err := ResponseTimeTest(s, PCPDA)
	if err != nil {
		t.Fatal(err)
	}
	if !dm.Schedulable {
		t.Fatalf("DM should save it: %+v", dm.Verdicts)
	}
}

func TestResponseTimeIncludesBlocking(t *testing.T) {
	s := section9Set(t)
	rta, err := ResponseTimeTest(s, RWPCP)
	if err != nil {
		t.Fatal(err)
	}
	// T1 under RW-PCP: R = C1 + B1 = 2 + 4 = 6.
	if rta.Verdicts[0].Txn.Name != "T1" || rta.Verdicts[0].Response != 6 {
		t.Errorf("T1 response = %d, want 6", rta.Verdicts[0].Response)
	}
	da, err := ResponseTimeTest(s, PCPDA)
	if err != nil {
		t.Fatal(err)
	}
	if da.Verdicts[0].Response != 2 {
		t.Errorf("T1 response under PCP-DA = %d, want 2", da.Verdicts[0].Response)
	}
}

func TestBTSSubsetPropertyOnRandomSets(t *testing.T) {
	// The paper's containment chain on 100 random workloads:
	// BTS(PCP-DA) ⊆ BTS(RW-PCP) ⊆ BTS(PCP).
	for seed := int64(0); seed < 100; seed++ {
		set, err := workload.Generate(workload.Config{
			N: 6, Items: 8, Utilization: 0.6,
			PeriodMin: 20, PeriodMax: 400,
			OpsMin: 1, OpsMax: 4, WriteProb: 0.4, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		ceil := txn.ComputeCeilings(set)
		for _, tmpl := range set.Templates {
			da := BTS(set, ceil, PCPDA, tmpl)
			rw := BTS(set, ceil, RWPCP, tmpl)
			op := BTS(set, ceil, OPCP, tmpl)
			if !SubsetOf(da, rw) {
				t.Fatalf("seed %d %s: BTS(PCP-DA) %v ⊄ BTS(RW-PCP) %v", seed, tmpl.Name, names(da), names(rw))
			}
			if !SubsetOf(rw, op) {
				t.Fatalf("seed %d %s: BTS(RW-PCP) %v ⊄ BTS(PCP) %v", seed, tmpl.Name, names(rw), names(op))
			}
			bda := WorstCaseBlocking(set, ceil, PCPDA, tmpl)
			brw := WorstCaseBlocking(set, ceil, RWPCP, tmpl)
			if bda > brw {
				t.Fatalf("seed %d %s: B(PCP-DA)=%d > B(RW-PCP)=%d", seed, tmpl.Name, bda, brw)
			}
		}
	}
}

func TestKindStrings(t *testing.T) {
	want := map[Kind]string{PCPDA: "PCP-DA", RWPCP: "RW-PCP", CCP: "CCP", OPCP: "PCP", PIP: "2PL-PIP"}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d renders %q, want %q", k, k.String(), s)
		}
	}
	if Kind(99).String() != "?" {
		t.Error("unknown kind must render ?")
	}
	if len(Kinds) != 5 {
		t.Error("Kinds must list all five protocols")
	}
}

func names(ts []*txn.Template) []string {
	var out []string
	for _, t := range ts {
		out = append(out, t.Name)
	}
	return out
}
