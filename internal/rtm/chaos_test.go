package rtm

import (
	"testing"

	"pcpda/internal/rt"
	"pcpda/internal/txn"
	"pcpda/internal/workload"
)

// chaosSet builds the small contended workload every chaos schedule runs.
func chaosSet(t testing.TB, seed int64, periodMin, periodMax rt.Ticks) *txn.Set {
	t.Helper()
	set, err := workload.Generate(workload.Config{
		N: 4, Items: 5, Utilization: 0.5,
		PeriodMin: periodMin, PeriodMax: periodMax,
		OpsMin: 2, OpsMax: 4, WriteProb: 0.5, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// TestChaosHammer is the acceptance gate for the fault-injection layer:
// over a thousand seeded fault schedules — forced delays, spurious
// wakeups, forced aborts, injected and real cancellations — each audited
// by CheckInvariants and the serializability checker. Any failure reports
// the schedule's seed for deterministic re-injection.
func TestChaosHammer(t *testing.T) {
	schedules := 1050
	if testing.Short() {
		schedules = 100
	}
	set := chaosSet(t, 424242, 50, 500)
	rep, err := RunChaos(set, ChaosConfig{
		Schedules: schedules,
		Seed:      20260805,
		Workers:   3,
		Iters:     3,
		PDelay:    0.08,
		PWakeup:   0.05,
		PAbort:    0.04,
		PCancel:   0.04,
	})
	if err != nil {
		t.Fatalf("%v\nreport so far: %s", err, rep)
	}
	if rep.Schedules != schedules {
		t.Fatalf("ran %d schedules, want %d", rep.Schedules, schedules)
	}
	if rep.Commits == 0 {
		t.Fatal("no schedule committed anything")
	}
	if rep.InjectedFaults == 0 {
		t.Fatal("no faults injected — the injector is not wired in")
	}
	if rep.Cancellations == 0 {
		t.Fatal("no cancellations observed")
	}
	t.Logf("chaos: %s", rep)
}

// TestChaosNoInjection keeps the harness honest on a clean manager: with
// no injection and no cancellation races, schedules must complete with
// zero aborts of any kind.
func TestChaosNoInjection(t *testing.T) {
	set := chaosSet(t, 11, 50, 500)
	rep, err := RunChaos(set, ChaosConfig{
		Schedules:  25,
		Seed:       5,
		Workers:    3,
		Iters:      3,
		CancelProb: -1, // no real-cancellation races either
	})
	if err != nil {
		t.Fatalf("%v\nreport: %s", err, rep)
	}
	if rep.InjectedFaults != 0 || rep.Cancellations != 0 {
		t.Fatalf("clean run reported faults: %s", rep)
	}
	if rep.Commits == 0 {
		t.Fatal("nothing committed")
	}
}
