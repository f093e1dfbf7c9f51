package experiments

import (
	"bytes"
	"testing"

	"pcpda/internal/sim"
	"pcpda/internal/workload"
)

// TestSweepEngineWorkerDeterminism is the parallel-engine gate: the same
// sweep run with 1 worker and with 8 workers must emit byte-identical
// reports — seeded runs share nothing and results merge in seed order, so
// goroutine scheduling must never show through.
func TestSweepEngineWorkerDeterminism(t *testing.T) {
	defer SetWorkers(0)
	defer SetHorizonCap(0)
	// Cap the horizon so the determinism property is exercised on every
	// sweep experiment at test-friendly cost; the capped numbers differ
	// from the paper's but are equally deterministic.
	SetHorizonCap(600)
	for _, name := range []string{"breakdown", "missratio", "blocking", "restarts", "ablation", "cslength", "hotspot"} {
		e, ok := ByName(name)
		if !ok {
			t.Fatalf("missing experiment %s", name)
		}
		run := func(workers int) []byte {
			SetWorkers(workers)
			var buf bytes.Buffer
			if err := e.Run(&buf); err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			return buf.Bytes()
		}
		serial := run(1)
		parallel := run(8)
		if !bytes.Equal(serial, parallel) {
			t.Errorf("%s: report differs between -j 1 and -j 8\n-j 1:\n%s\n-j 8:\n%s",
				name, serial, parallel)
		}
	}
}

// TestHorizonCap checks the CI smoke knob actually bounds sweep horizons
// and that clearing it restores full-length runs.
func TestHorizonCap(t *testing.T) {
	defer SetHorizonCap(0)
	set, err := workload.Generate(sweepConfig(0.55, 0.5, 42))
	if err != nil {
		t.Fatal(err)
	}
	SetHorizonCap(100)
	res, err := sim.Run(set, "pcpda", capHorizon(set, sim.Options{StopOnDeadlock: true}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Horizon > 100 {
		t.Errorf("capped horizon = %d, want ≤ 100", res.Horizon)
	}
	SetHorizonCap(0)
	res, err = sim.Run(set, "pcpda", capHorizon(set, sim.Options{StopOnDeadlock: true}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Horizon <= 100 {
		t.Errorf("uncapped horizon = %d, want > 100 for this set", res.Horizon)
	}
}

// TestWorkersDefault pins the 0-means-GOMAXPROCS contract SetWorkers
// documents.
func TestWorkersDefault(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(0)
	if Workers() < 1 {
		t.Fatalf("default Workers() = %d, want ≥ 1", Workers())
	}
	SetWorkers(3)
	if Workers() != 3 {
		t.Fatalf("Workers() = %d after SetWorkers(3)", Workers())
	}
	SetWorkers(-5)
	if Workers() < 1 {
		t.Fatalf("Workers() = %d after SetWorkers(-5), want default", Workers())
	}
}
