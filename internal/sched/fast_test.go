package sched

import (
	"slices"
	"testing"

	"pcpda/internal/cc"
	"pcpda/internal/ccp"
	"pcpda/internal/occ"
	"pcpda/internal/opcp"
	"pcpda/internal/papercases"
	"pcpda/internal/pcpda"
	"pcpda/internal/rt"
	"pcpda/internal/rwpcp"
	"pcpda/internal/tplhp"
	"pcpda/internal/txn"
	"pcpda/internal/workload"
)

// protoFactories builds fresh instances for the differential sweep.
var protoFactories = map[string]func() cc.Protocol{
	"pcpda": func() cc.Protocol { return pcpda.New() },
	"rwpcp": func() cc.Protocol { return rwpcp.New() },
	"ccp":   func() cc.Protocol { return ccp.New() },
	"pcp":   func() cc.Protocol { return opcp.New() },
	"2plhp": func() cc.Protocol { return tplhp.New() },
	"occ":   func() cc.Protocol { return occ.New() },
}

// runMode executes one simulation in fast or tick-by-tick mode.
func runMode(t *testing.T, set *txn.Set, proto cc.Protocol, horizon rt.Ticks, cfg Config) *Result {
	t.Helper()
	cfg.Horizon = horizon
	k, err := New(set, proto, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return k.Run()
}

// diffResults asserts semantic equality of a fast and a slow run.
func diffResults(t *testing.T, label string, fast, slow *Result) {
	t.Helper()
	if fast.Committed != slow.Committed || fast.Misses != slow.Misses ||
		fast.Aborts != slow.Aborts || fast.Restarts != slow.Restarts ||
		fast.IdleTicks != slow.IdleTicks || fast.Deadlocked != slow.Deadlocked {
		t.Fatalf("%s: aggregate mismatch\nfast: commit=%d miss=%d abort=%d restart=%d idle=%d dl=%v\nslow: commit=%d miss=%d abort=%d restart=%d idle=%d dl=%v",
			label,
			fast.Committed, fast.Misses, fast.Aborts, fast.Restarts, fast.IdleTicks, fast.Deadlocked,
			slow.Committed, slow.Misses, slow.Aborts, slow.Restarts, slow.IdleTicks, slow.Deadlocked)
	}
	if fast.History.String() != slow.History.String() {
		t.Fatalf("%s: histories diverge\nfast: %s\nslow: %s", label, fast.History, slow.History)
	}
	if len(fast.Jobs) != len(slow.Jobs) {
		t.Fatalf("%s: job counts diverge: %d vs %d", label, len(fast.Jobs), len(slow.Jobs))
	}
	for i := range fast.Jobs {
		fj, sj := fast.Jobs[i], slow.Jobs[i]
		if fj.Release != sj.Release || fj.FinishTick != sj.FinishTick ||
			fj.BlockedTicks != sj.BlockedTicks || fj.InvBlockTicks != sj.InvBlockTicks ||
			fj.MissedAt != sj.MissedAt || fj.Restarts != sj.Restarts {
			t.Fatalf("%s job %d (%s): fast{rel=%d fin=%d blk=%d inv=%d miss=%d rst=%d} slow{rel=%d fin=%d blk=%d inv=%d miss=%d rst=%d}",
				label, i, fj.Tmpl.Name,
				fj.Release, fj.FinishTick, fj.BlockedTicks, fj.InvBlockTicks, fj.MissedAt, fj.Restarts,
				sj.Release, sj.FinishTick, sj.BlockedTicks, sj.InvBlockTicks, sj.MissedAt, sj.Restarts)
		}
	}
	if !slices.Equal(fast.Decisions, slow.Decisions) {
		t.Fatalf("%s: decision tallies diverge\nfast: %v\nslow: %v", label, fast.Decisions, slow.Decisions)
	}
	if !slices.Equal(fast.ItemBlocked, slow.ItemBlocked) {
		t.Fatalf("%s: per-item blocking diverges\nfast: %v\nslow: %v", label, fast.ItemBlocked, slow.ItemBlocked)
	}
}

func TestFastForwardEquivalenceOnPaperCases(t *testing.T) {
	cases := []struct {
		build   func() *txn.Set
		horizon rt.Ticks
	}{
		{papercases.Example1, 40},
		{papercases.Example3, 40},
		{papercases.Example4, 60},
		{papercases.Example5, 40},
	}
	for _, c := range cases {
		for name, mk := range protoFactories {
			fast := runMode(t, c.build(), mk(), c.horizon, Config{StopOnDeadlock: true})
			slow := runMode(t, c.build(), mk(), c.horizon, Config{StopOnDeadlock: true, DisableFastForward: true})
			diffResults(t, c.build().Name+"/"+name, fast, slow)
		}
	}
}

func TestFastForwardEquivalenceOnRandomWorkloads(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		cfg := workload.Config{
			N: 7, Items: 6, Utilization: 0.6,
			PeriodMin: 30, PeriodMax: 400,
			OpsMin: 1, OpsMax: 4, WriteProb: 0.5,
			OpDurMax: 3, Seed: seed,
		}
		set, err := workload.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		horizon := 40 * set.Templates[0].Period
		if horizon > 20000 {
			horizon = 20000
		}
		for name, mk := range protoFactories {
			fast := runMode(t, set, mk(), horizon, Config{StopOnDeadlock: true})
			slow := runMode(t, set, mk(), horizon, Config{StopOnDeadlock: true, DisableFastForward: true})
			diffResults(t, set.Name+"/"+name, fast, slow)
		}
	}
}

func TestFastForwardEquivalenceFirmDeadlines(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		set, err := workload.Generate(workload.Config{
			N: 6, Items: 4, Utilization: 1.1, // overload: aborts exercise MissedAt paths
			PeriodMin: 20, PeriodMax: 200,
			OpsMin: 1, OpsMax: 3, WriteProb: 0.5, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		fast := runMode(t, set, pcpda.New(), 4000, Config{Deadline: FirmAbort, StopOnDeadlock: true})
		slow := runMode(t, set, pcpda.New(), 4000, Config{Deadline: FirmAbort, StopOnDeadlock: true, DisableFastForward: true})
		diffResults(t, "firm", fast, slow)
	}
}

func TestFastForwardEquivalenceSporadic(t *testing.T) {
	s := txn.NewSet("sporadic-diff")
	x := s.Catalog.Intern("x")
	s.Add(&txn.Template{Name: "p", Period: 12, Steps: []txn.Step{txn.Read(x), txn.Comp(3)}})
	s.Add(&txn.Template{Name: "s", Period: 30, Sporadic: true, Steps: []txn.Step{txn.Write(x), txn.Comp(6)}})
	s.AssignRateMonotonic()
	fast := runMode(t, s, pcpda.New(), 600, Config{SporadicJitter: 0.7, Seed: 11})
	slow := runMode(t, s, pcpda.New(), 600, Config{SporadicJitter: 0.7, Seed: 11, DisableFastForward: true})
	diffResults(t, "sporadic", fast, slow)
}

// TestFastForwardActuallySkips holds what the fast path saves, in Run's
// passes: a Read(x), Comp(400), Comp(400) job costs its grant pass, whose span
// runs on through both compute segments to the end of the body (no lock can
// change at a boundary into a compute step), and one idle pass that jumps to
// the next release. Tick by tick the same run takes a pass per tick.
func TestFastForwardActuallySkips(t *testing.T) {
	s := txn.NewSet("skip")
	x := s.Catalog.Intern("x")
	s.Add(&txn.Template{Name: "T", Period: 1000, Steps: []txn.Step{txn.Read(x), txn.Comp(400), txn.Comp(400)}})
	s.AssignRateMonotonic()
	for _, c := range []struct {
		disable bool
		passes  int
	}{{false, 10 * 2}, {true, 10000}} {
		k, err := New(s, pcpda.New(), Config{Horizon: 10000, DisableFastForward: c.disable})
		if err != nil {
			t.Fatal(err)
		}
		res := k.Run()
		if res.Committed != 10 || res.IdleTicks != 10000-10*801 {
			t.Fatalf("DisableFastForward=%v: committed %d, idle %d", c.disable, res.Committed, res.IdleTicks)
		}
		if k.passes != c.passes {
			t.Errorf("DisableFastForward=%v: %d passes, want %d", c.disable, k.passes, c.passes)
		}
	}
}
