package sim

import (
	"testing"

	"pcpda/internal/sched"
	"pcpda/internal/txn"
	"pcpda/internal/workload"
)

// TestGoldenBatchVsSequential is the satellite gate for RunBatch: a batch
// over every protocol × several option profiles (including the fault layer)
// must be byte-identical to the same runs issued sequentially through Run.
func TestGoldenBatchVsSequential(t *testing.T) {
	variants := []Options{
		{StopOnDeadlock: true},
		{StopOnDeadlock: true, FirmDeadlines: true, TrackCeiling: true, Seed: 7},
		{StopOnDeadlock: true, FirmDeadlines: true, FaultAbortProb: 0.05, FaultSeed: 11},
	}
	for _, set := range goldenWorkloads(t) {
		var runs []BatchRun
		for _, name := range Protocols() {
			for _, opts := range variants {
				runs = append(runs, BatchRun{Set: set, Protocol: name, Opts: opts})
			}
		}
		got, err := RunBatch(runs)
		if err != nil {
			t.Fatalf("%s: %v", set.Name, err)
		}
		if len(got) != len(runs) {
			t.Fatalf("%s: %d results, want %d", set.Name, len(got), len(runs))
		}
		for i, r := range runs {
			want, err := Run(r.Set, r.Protocol, r.Opts)
			if err != nil {
				t.Fatalf("%s/%s sequential: %v", set.Name, r.Protocol, err)
			}
			if fpB, fpS := fingerprint(set, got[i]), fingerprint(set, want); fpB != fpS {
				t.Errorf("%s/%s run %d: batch diverges from sequential\nfirst diff: %s",
					set.Name, r.Protocol, i, firstDiff(fpB, fpS))
			}
			if got[i].FaultAborts != want.FaultAborts {
				t.Errorf("%s/%s run %d: FaultAborts %d vs %d",
					set.Name, r.Protocol, i, got[i].FaultAborts, want.FaultAborts)
			}
		}
	}
}

// TestBatchErrors pins the error surface: nil sets, unknown protocols and
// invalid option values abort the batch instead of returning partial output.
func TestBatchErrors(t *testing.T) {
	set := goldenWorkloads(t)[0]
	cases := []struct {
		name string
		runs []BatchRun
	}{
		{"nil set", []BatchRun{{Set: nil, Protocol: "pcpda"}}},
		{"unknown protocol", []BatchRun{{Set: set, Protocol: "nope"}}},
		{"bad fault prob", []BatchRun{{Set: set, Protocol: "pcpda", Opts: Options{FaultAbortProb: 1.5}}}},
	}
	for _, tc := range cases {
		if out, err := RunBatch(tc.runs); err == nil {
			t.Errorf("%s: want error, got %d results", tc.name, len(out))
		}
	}
}

// TestFaultLayerGolden pins the injected-fault layer itself:
//
//   - seeded determinism: the same FaultSeed reproduces the identical
//     schedule, a different seed moves the faults;
//   - fast-forward transparency: with faults on, skipping idle spans must
//     not change the schedule versus full tick-by-tick execution (executing
//     spans already run tick-by-tick to keep the draw-per-executed-tick
//     fault schedule);
//   - the counter is live: a high probability actually terminates jobs, and
//     fault terminations stay out of the firm-deadline Aborts count.
func TestFaultLayerGolden(t *testing.T) {
	totalFaults := 0
	for _, set := range goldenWorkloads(t) {
		for _, name := range Protocols() {
			run := func(seed int64, disableFF bool) *sched.Result {
				p, err := NewProtocol(name)
				if err != nil {
					t.Fatal(err)
				}
				k, err := sched.New(set, p, sched.Config{
					Horizon:            DefaultHorizon(set),
					Deadline:           sched.FirmAbort,
					StopOnDeadlock:     true,
					FaultAbortProb:     0.1,
					FaultSeed:          seed,
					DisableFastForward: disableFF,
				})
				if err != nil {
					t.Fatal(err)
				}
				return k.Run()
			}
			a, b := run(3, false), run(3, false)
			if fpA, fpB := fingerprint(set, a), fingerprint(set, b); fpA != fpB {
				t.Errorf("%s/%s: same fault seed diverges\nfirst diff: %s", set.Name, name, firstDiff(fpA, fpB))
			}
			tick := run(3, true)
			if fpA, fpT := fingerprint(set, a), fingerprint(set, tick); fpA != fpT {
				t.Errorf("%s/%s: fast-forward changes faulted schedule\nfirst diff: %s",
					set.Name, name, firstDiff(fpA, fpT))
			}
			totalFaults += a.FaultAborts
		}
	}
	// Every protocol shares the seed-3 draw sequence (one draw per executed
	// tick), so a short example can legitimately see zero faults; the layer
	// being alive at all is an aggregate property.
	if totalFaults == 0 {
		t.Error("no injected faults across any workload at p=0.1")
	}
}

// batchBenchSet builds the short-horizon scenario-sweep regime: a modest
// set simulated many times.
func batchBenchSet(b *testing.B) *txn.Set {
	b.Helper()
	set, err := workload.Generate(workload.Config{
		Name: "batch-bench", N: 10, Items: 12,
		Utilization: 0.6, PeriodMin: 40, PeriodMax: 400,
		OpsMin: 2, OpsMax: 4, WriteProb: 0.5, Seed: 42,
	})
	if err != nil {
		b.Fatal(err)
	}
	return set
}

func benchRuns(set *txn.Set) []BatchRun {
	var runs []BatchRun
	for seed := int64(0); seed < 8; seed++ {
		for _, name := range []string{"pcpda", "2plhp", "occ"} {
			runs = append(runs, BatchRun{Set: set, Protocol: name,
				Opts: Options{Horizon: 512, FirmDeadlines: true, StopOnDeadlock: true, Seed: seed}})
		}
	}
	return runs
}

func BenchmarkRunBatch(b *testing.B) {
	set := batchBenchSet(b)
	runs := benchRuns(set)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunBatch(runs); err != nil {
			b.Fatal(err)
		}
	}
}
