package sched

import (
	"strings"
	"testing"

	"pcpda/internal/papercases"
	"pcpda/internal/pcpda"
	"pcpda/internal/rt"
	"pcpda/internal/txn"
	"pcpda/internal/workload"
)

var paperBuilders = []func() *txn.Set{
	papercases.Example1,
	papercases.Example3,
	papercases.Example4,
	papercases.Example5,
}

func TestParanoidCleanOnPaperCases(t *testing.T) {
	for _, mkProto := range protoFactories {
		for _, build := range paperBuilders {
			k, err := New(build(), mkProto(), Config{Horizon: 60, Paranoid: true, StopOnDeadlock: true})
			if err != nil {
				t.Fatal(err)
			}
			res := k.Run()
			if res.Invariant != nil {
				t.Fatalf("%s: %v", res.Protocol, res.Invariant)
			}
		}
	}
}

func TestParanoidCleanOnRandomSweep(t *testing.T) {
	for seed := int64(1); seed <= 15; seed++ {
		set, err := workload.Generate(workload.Config{
			N: 6, Items: 5, Utilization: 0.6,
			PeriodMin: 25, PeriodMax: 250,
			OpsMin: 1, OpsMax: 4, WriteProb: 0.5, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		for name, mk := range protoFactories {
			k, err := New(set, mk(), Config{Horizon: 3000, Paranoid: true, StopOnDeadlock: true})
			if err != nil {
				t.Fatal(err)
			}
			res := k.Run()
			if res.Invariant != nil {
				t.Fatalf("seed %d %s: %v", seed, name, res.Invariant)
			}
		}
	}
}

// TestInvariantDetectsCorruption sanity-checks the kernel's own invariant by
// corrupting its state by hand, and shows that Paranoid runs reach the audit
// the kernel shares with the manager (cc.CheckState, whose clauses have a
// corruption row each in package cc).
func TestInvariantDetectsCorruption(t *testing.T) {
	mk := func() *Kernel {
		k, err := New(papercases.Example4(), pcpda.New(), Config{Horizon: 12, Paranoid: true})
		if err != nil {
			t.Fatal(err)
		}
		// Run a few ticks manually to populate state.
		for i := 0; i < 3; i++ {
			k.release()
			k.checkDeadlines()
			j, _ := k.dispatch()
			k.accountTick(j)
			k.now++
			if j != nil && j.Finished() {
				k.commit(j)
			}
		}
		if len(k.active) == 0 {
			t.Fatal("need an active job")
		}
		return k
	}

	// I5: a live status on a job missing from the active list.
	k := mk()
	j := k.active[0]
	k.leave(j)
	if err := k.checkInvariants(); err == nil || !strings.Contains(err.Detail, "but active=false") {
		t.Fatalf("I5 not detected: %v", err)
	}

	// I5: a job stored away from its id.
	k = mk()
	k.jobs[0].ID = 7
	if err := k.checkInvariants(); err == nil || !strings.Contains(err.Detail, "stored at index") {
		t.Fatalf("I5 density not detected: %v", err)
	}

	// The shared audit, reached by a Paranoid run: a lock held by a job that
	// was never released halts the run at the end of the next tick.
	k = mk()
	k.locks.Acquire(rt.JobID(1000), 0, rt.Read)
	res := k.Run()
	if res.Invariant == nil || !strings.Contains(res.Invariant.Detail, "job 1000, which is not active") {
		t.Fatalf("Paranoid run missed a lock held by no active job: %v", res.Invariant)
	}
}

func TestInvariantErrorString(t *testing.T) {
	e := &InvariantError{Tick: 7, Detail: "boom"}
	if !strings.Contains(e.Error(), "t=7") || !strings.Contains(e.Error(), "boom") {
		t.Fatalf("error = %q", e.Error())
	}
}
