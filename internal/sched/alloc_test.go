package sched

import (
	"reflect"
	"slices"
	"testing"

	"pcpda/internal/cc"
	"pcpda/internal/rt"
	"pcpda/internal/testenv"
	"pcpda/internal/txn"
	"pcpda/internal/workload"
)

// TestKernelAllocBudget holds the kernel to an allocation budget per released
// job, in objects and in bytes, one protocol per family: deferred updates (a
// workspace per live job), update in place (an undo journal per run) and
// restarting (runs re-armed mid-flight). The set is the repository benchmark's
// first sweep set under its options, so the figure is the one sim-sweep pays.
// Before the shared structures became slices and jobs were carved from slabs
// this read 8.2 objects, and 0.27-0.44 while the protocols copied every
// blocker set they answered with. What is left is per run (the pre-sized
// records and history, one box per job live at once, the protocols' scratch
// warming up), nothing on the block path.
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
	set := firstSweepSet(t)
	cfg := Config{Horizon: 15_000, Deadline: FirmAbort, StopOnDeadlock: true}
	const budget = 0.30 // allocations per released job; the three read 0.07-0.09
	// Bytes per released job, which the object count does not see: a
	// departed job keeps an 88-byte JobRecord and its EverBlockedBy in the
	// result's Blockers; its cc.Job, DataRead, workspace and blocker lists
	// are in the box it gave back. The rest is its share of the history. The
	// three read 286, 287 and 520 (391, 391 and 626 while every job kept its
	// 184-byte cc.Job in a slab); each budget is that reading plus 8 %. The
	// restarting family's history outgrows its reservation, so it gets more.
	bytesBudget := map[string]int64{"pcpda": 310, "rwpcp": 310, "2plhp": 560}
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
		bytes := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				k, _ := New(set, protoFactories[name](), cfg)
				k.Run()
			}
		}).AllocedBytesPerOp() / int64(len(res.Jobs))
		t.Logf("%s: %d jobs, %d restarts, %.0f allocations per run, %.3f and %d B per job", name, len(res.Jobs), res.Restarts, allocs, perJob, bytes)
		if perJob > budget {
			t.Errorf("%s: %.3f allocations per released job, budget %.2f", name, perJob, budget)
		}
		if bytes > bytesBudget[name] {
			t.Errorf("%s: %d B per released job, budget %d", name, bytes, bytesBudget[name])
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

// TestResultHoldsNoPointers: a result's records and its Blockers are
// pointer-free, so the collector never scans them however many jobs a run
// released. A field that points anywhere (a pointer, slice, map, interface,
// string, channel or function) fails here, not in a profile.
func TestResultHoldsNoPointers(t *testing.T) {
	res := Result{}
	for _, typ := range []reflect.Type{reflect.TypeOf(res.Jobs).Elem(), reflect.TypeOf(res.Blockers).Elem()} {
		if path := pointerIn(typ, typ.Name()); path != "" {
			t.Errorf("%s holds a pointer at %s", typ, path)
		}
	}
	if size := reflect.TypeOf(JobRecord{}).Size(); size > 96 {
		t.Errorf("JobRecord is %d bytes, more than 96", size)
	}
}

// pointerIn returns the path to the first field of typ that the collector
// would scan, "" when there is none.
func pointerIn(typ reflect.Type, path string) string {
	switch typ.Kind() {
	case reflect.Struct:
		for i := range typ.NumField() {
			f := typ.Field(i)
			if p := pointerIn(f.Type, path+"."+f.Name); p != "" {
				return p
			}
		}
	case reflect.Array:
		return pointerIn(typ.Elem(), path+"[]")
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
		reflect.Interface, reflect.String, reflect.Chan, reflect.Func:
		return path + " (" + typ.Kind().String() + ")"
	}
	return ""
}

// firstSweepSet is the repository benchmark's first sim-sweep set
// (benchmark/simsweep.go: sweepConfig(0); package main there, so copied
// rather than imported).
func firstSweepSet(t *testing.T) *txn.Set {
	t.Helper()
	set, err := workload.Generate(workload.Config{
		N: 10, Items: 16, Utilization: 0.65,
		PeriodMin: 40, PeriodMax: 400,
		OpsMin: 2, OpsMax: 4, WriteProb: 0.5,
		HotItems: 4, HotProb: 0.5, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// TestRetiredJobsKeepNoLiveState: a job that has left keeps only its record.
// Its cc.Job, DataRead, workspace and blocker lists went back to the kernel
// with its box, and the run made no more boxes than it had jobs live at once;
// its EverBlockedBy is a range of the result's Blockers. A restart is no
// departure: the victim keeps its box, DataRead emptied, which readWatch sees
// at its requests.
func TestRetiredJobsKeepNoLiveState(t *testing.T) {
	set := firstSweepSet(t)
	cfg := Config{Horizon: 15_000, Deadline: FirmAbort, StopOnDeadlock: true}
	for _, name := range []string{"pcpda", "rwpcp", "2plhp", "occ"} {
		proto := protoFactories[name]()
		watch := &readWatch{Protocol: proto, t: t}
		if name == "2plhp" { // occ restarts its victims from CommitVictims, which a wrapper would hide
			proto = watch
		}
		k, err := New(set, proto, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res := k.Run()
		blocked := 0
		for id, j := range res.Jobs {
			if j.Status != cc.Done && j.Status != cc.Aborted {
				continue
			}
			if j.BlockedTicks > 0 {
				blocked++
				ever := slices.Clone(res.EverBlockedBy(j))
				slices.Sort(ever)
				if len(ever) == 0 || len(slices.Compact(ever)) != len(res.EverBlockedBy(j)) || slices.Contains(ever, rt.JobID(id)) {
					t.Fatalf("%s: job %d blocked %d ticks, EverBlockedBy %v", name, id, j.BlockedTicks, res.EverBlockedBy(j))
				}
			}
		}
		most := mostLive(res)
		t.Logf("%s: %d jobs, %d restarts, %d departed jobs that blocked; %d boxes, at most %d jobs live at once; %d requests by restarted jobs",
			name, len(res.Jobs), res.Restarts, blocked, len(k.boxes), most, watch.restarted)
		if len(k.boxes) > most {
			t.Errorf("%s: %d boxes made, but at most %d jobs were live at once", name, len(k.boxes), most)
		}
		if (name == "pcpda" || name == "rwpcp") && blocked == 0 {
			t.Errorf("%s: no departed job ever blocked: the set no longer exercises EverBlockedBy", name)
		}
		if name == "2plhp" && watch.restarted == 0 {
			t.Error("2plhp: no restarted job made a request with an emptied DataRead")
		}
	}
}

// readWatch passes requests to a protocol and checks at each that the job
// still has its DataRead and that it holds exactly the items of the read
// steps before the current one; it counts the requests a restarted job makes
// with DataRead emptied.
type readWatch struct {
	cc.Protocol
	t         *testing.T
	restarted int
}

func (w *readWatch) Request(env cc.Env, j *cc.Job, x rt.Item, m rt.Mode) cc.Decision {
	want := rt.NewItemSet()
	for _, s := range j.Tmpl.Steps[:j.StepIdx] {
		if s.Kind == txn.ReadStep {
			want.Add(s.Item)
		}
	}
	switch {
	case j.DataRead == nil:
		w.t.Fatalf("live job %d requests without a DataRead", j.ID)
	case j.DataRead.Len() != want.Len() || slices.ContainsFunc(want.Items(), func(x rt.Item) bool { return !j.DataRead.Has(x) }):
		w.t.Fatalf("job %d (restarts %d) at step %d: DataRead %v, want %v", j.ID, j.Restarts, j.StepIdx, j.DataRead.Items(), want.Items())
	case j.Restarts > 0 && j.DataRead.Len() == 0:
		w.restarted++
	}
	return w.Protocol.Request(env, j, x, m)
}

// mostLive is the most jobs of res live at one release instant: released at
// or before it, and neither committed (at FinishTick, before that tick's
// releases) nor firm-aborted (at MissedAt, after them) before it. A box is
// lent only at a release, so no run needs more boxes than this.
func mostLive(res *Result) int {
	most := 0
	for _, r := range res.Jobs {
		n := 0
		for _, j := range res.Jobs {
			done := j.Status == cc.Done && j.FinishTick <= r.Release
			aborted := j.Status == cc.Aborted && j.MissedAt < r.Release
			if j.Release <= r.Release && !done && !aborted {
				n++
			}
		}
		most = max(most, n)
	}
	return most
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
