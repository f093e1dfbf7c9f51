package sched

import (
	"testing"

	"pcpda/internal/pcpda"
	"pcpda/internal/rt"
	"pcpda/internal/txn"
)

func sporadicSet() *txn.Set {
	s := txn.NewSet("sporadic")
	x := s.Catalog.Intern("x")
	s.Add(&txn.Template{Name: "periodic", Period: 10, Steps: []txn.Step{txn.Read(x), txn.Comp(1)}})
	s.Add(&txn.Template{Name: "alarm", Period: 15, Sporadic: true, Steps: []txn.Step{txn.Write(x), txn.Comp(2)}})
	s.AssignRateMonotonic()
	return s
}

func releasesOf(res *Result, name string) []rt.Ticks {
	var out []rt.Ticks
	for _, j := range res.Jobs {
		if res.Set.Templates[j.Tmpl].Name == name {
			out = append(out, j.Release)
		}
	}
	return out
}

func TestSporadicRespectsMinimumSeparation(t *testing.T) {
	k, err := New(sporadicSet(), pcpda.New(), Config{
		Horizon: 300, SporadicJitter: 0.8, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := k.Run()
	rels := releasesOf(res, "alarm")
	if len(rels) < 5 {
		t.Fatalf("only %d sporadic releases in 300 ticks", len(rels))
	}
	jittered := false
	for i := 1; i < len(rels); i++ {
		gap := rels[i] - rels[i-1]
		if gap < 15 {
			t.Fatalf("inter-arrival %d below the minimum 15", gap)
		}
		if gap > rt.Ticks(float64(15)*1.8)+1 {
			t.Fatalf("inter-arrival %d beyond Period·(1+J)", gap)
		}
		if gap > 15 {
			jittered = true
		}
	}
	if !jittered {
		t.Fatal("jitter never stretched an inter-arrival")
	}
	// Sporadic load is never heavier than the periodic worst case.
	if res.Misses != 0 {
		t.Fatalf("misses = %d on an easily schedulable set", res.Misses)
	}
}

func TestSporadicDeterministicBySeed(t *testing.T) {
	runWith := func(seed int64) []rt.Ticks {
		k, err := New(sporadicSet(), pcpda.New(), Config{
			Horizon: 300, SporadicJitter: 0.8, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		return releasesOf(k.Run(), "alarm")
	}
	a, b, c := runWith(7), runWith(7), runWith(8)
	if len(a) != len(b) {
		t.Fatal("same seed, different release counts")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed, different schedules")
		}
	}
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical sporadic arrivals")
	}
}

func TestSporadicWithoutJitterIsPeriodic(t *testing.T) {
	k, err := New(sporadicSet(), pcpda.New(), Config{Horizon: 100})
	if err != nil {
		t.Fatal(err)
	}
	rels := releasesOf(k.Run(), "alarm")
	for i, rel := range rels {
		if rel != rt.Ticks(i*15) {
			t.Fatalf("release %d at %d, want strictly periodic %d", i, rel, i*15)
		}
	}
}

func TestSporadicValidation(t *testing.T) {
	s := txn.NewSet("bad")
	x := s.Catalog.Intern("x")
	s.Add(&txn.Template{Name: "A", Sporadic: true, Steps: []txn.Step{txn.Read(x)}})
	s.AssignByIndex()
	if err := s.Validate(); err == nil {
		t.Fatal("sporadic one-shot must be rejected")
	}
}
