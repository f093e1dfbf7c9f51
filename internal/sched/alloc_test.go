package sched

import (
	"testing"

	"pcpda/internal/rt"
	"pcpda/internal/testenv"
	"pcpda/internal/txn"
	"pcpda/internal/workload"
)

// TestKernelAllocBudget holds the kernel to an allocation budget per released
// job, one protocol per family: deferred updates (a workspace per job),
// update in place (an undo journal per run) and restarting (runs re-armed
// mid-flight). The set is the repository benchmark's first sweep set under
// its options, so the figure is the one sim-sweep pays. Before the shared
// structures became slices and jobs were carved from slabs this read 8.2;
// what is left is per run (the slabs, the pre-sized per-job arrays) plus the
// blocker lists of the jobs that block, and the budget leaves that room.
//
// Nothing the kernel keeps for ceilings grows with the jobs released: the
// ceiling is read off the lock table's holder records, and those are bounded
// by the jobs holding locks at one instant — under firm deadlines at most one
// instance per template, since a late instance is aborted as its successor
// arrives.
func TestKernelAllocBudget(t *testing.T) {
	if testenv.Race {
		t.Skip("the race runtime allocates")
	}
	set, err := workload.Generate(workload.Config{
		N: 10, Items: 16, Utilization: 0.65,
		PeriodMin: 40, PeriodMax: 400,
		OpsMin: 2, OpsMax: 4, WriteProb: 0.5,
		HotItems: 4, HotProb: 0.5, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Horizon: 15_000, Deadline: FirmAbort, StopOnDeadlock: true, Ceilings: txn.ComputeCeilings(set)}
	const budget = 0.70 // allocations per released job; the three read 0.31-0.42
	for _, name := range []string{"pcpda", "rwpcp", "2plhp"} {
		var res *Result
		var k *Kernel
		allocs := testing.AllocsPerRun(5, func() {
			var err error
			if k, err = New(set, protoFactories[name](), cfg); err != nil {
				t.Fatal(err)
			}
			res = k.Run()
		})
		perJob := allocs / float64(len(res.Jobs))
		t.Logf("%s: %d jobs, %d restarts, %.0f allocations per run, %.3f per job", name, len(res.Jobs), res.Restarts, allocs, perJob)
		if perJob > budget {
			t.Errorf("%s: %.3f allocations per released job, budget %.2f", name, perJob, budget)
		}
		if _, holders := k.locks.Extent(); holders > len(set.Templates) {
			t.Errorf("%s: %d lock-holder records after %d jobs of %d templates", name, holders, len(res.Jobs), len(set.Templates))
		}
		if name == "2plhp" && res.Restarts == 0 {
			t.Error("the restarting family's run restarted nothing: the set no longer exercises it")
		}
		// Sized from the release count the horizon implies, not by doubling:
		// a strictly periodic run releases exactly that many jobs.
		if len(res.Jobs) != cap(res.Jobs) {
			t.Errorf("%s: %d jobs in a slice of capacity %d", name, len(res.Jobs), cap(res.Jobs))
		}
	}
}

// TestExpectedLoad pins the pre-sizing arithmetic, its caps included.
func TestExpectedLoad(t *testing.T) {
	set := txn.NewSet("load")
	a, b := set.Catalog.Intern("a"), set.Catalog.Intern("b")
	set.Add(&txn.Template{Name: "P", Period: 10, Offset: 3, Steps: []txn.Step{txn.Read(a), txn.Comp(2), txn.Write(b)}})
	set.Add(&txn.Template{Name: "Once", Offset: 5, Steps: []txn.Step{txn.Write(a)}})
	set.Add(&txn.Template{Name: "Late", Period: 10, Offset: 100, Steps: []txn.Step{txn.Read(a)}})
	// P releases at 3, 13, 23, 33 (4 jobs x (begin, commit, 2 access steps;
	// the compute step records nothing)); Once at 5 (1 job x 3); Late never
	// within the horizon.
	if jobs, ops := expectedLoad(set, 40); jobs != 5 || ops != 4*4+3 {
		t.Errorf("expectedLoad = %d jobs, %d ops, want 5 and 19", jobs, ops)
	}
	if jobs, ops := expectedLoad(set, 1<<40); jobs != maxPresizeJobs || ops != maxPresizeOps {
		t.Errorf("expectedLoad at a huge horizon = %d, %d, want the caps %d, %d", jobs, ops, maxPresizeJobs, maxPresizeOps)
	}
}

// TestNewRefusesItemsOutsideTheCatalog: the kernel's per-item slices (lock
// table, store, ceilings, blocked-tick tally) are sized by item id, so
// no kernel is built over a set whose steps name an id the catalog does not
// hold — txn.Set.Validate runs first and refuses it.
func TestNewRefusesItemsOutsideTheCatalog(t *testing.T) {
	for _, hostile := range []rt.Item{-2, 1, 1 << 30} {
		set := txn.NewSet("hostile")
		set.Catalog.Intern("a")
		set.Add(&txn.Template{Name: "T", Period: 10, Steps: []txn.Step{txn.Read(hostile)}})
		set.AssignByIndex()
		if _, err := New(set, protoFactories["pcpda"](), Config{Horizon: 100}); err == nil {
			t.Errorf("item %d: a kernel was built", hostile)
		}
	}
}
