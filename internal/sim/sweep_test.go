package sim

import (
	"flag"
	"fmt"
	"testing"

	"pcpda/internal/sched"
	"pcpda/internal/testenv"
	"pcpda/internal/workload"
)

// fullSweep widens TestFastForwardOnSweepRegime and
// TestKernelBytesOnSweepRegime from a slice to the whole grid (go test
// ./internal/sim -run 'TestFastForwardOnSweepRegime|TestKernelBytesOnSweepRegime'
// -fullsweep, about 17 s); CI's sweeps job passes it.
var fullSweep = flag.Bool("fullsweep", false, "run the sweep-regime tests over all sweepSets sets")

// sweepSets and sweepSetConfig copy the repository benchmark's sim-sweep
// regime (benchmark/simsweep.go: sweepSets, sweepConfig and its 15 000-tick
// horizon; package main there, so copied rather than imported).
const (
	sweepSets    = 40
	sweepHorizon = 15_000
)

func sweepSetConfig(i int) workload.Config {
	return workload.Config{
		N: 10, Items: 16, Utilization: 0.65,
		PeriodMin: 40, PeriodMax: 400,
		OpsMin: 2, OpsMax: 4, WriteProb: 0.5,
		HotItems: 4, HotProb: 0.5, Seed: int64(i + 1),
	}
}

// TestFastForwardOnSweepRegime holds fast-forward to tick-by-tick execution on
// the benchmark's own sets, every protocol, firm and hard deadlines, through
// the full golden fingerprint (EverBlockedBy, rule tallies, audit counters and
// final running priorities included). Tier-1 runs every tenth set; -fullsweep
// runs all of them (40 sets x 9 protocols x 2 policies = 720 cells). The race
// build runs a seeded fifth of those cells: the kernel starts no goroutine.
func TestFastForwardOnSweepRegime(t *testing.T) {
	stride := 10
	if *fullSweep {
		stride = 1
	}
	take := sampled(5)
	for i := 0; i < sweepSets; i += stride {
		set, err := workload.Generate(sweepSetConfig(i))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range Protocols() {
			for policy, pname := range []string{sched.HardRecord: "hard", sched.FirmAbort: "firm"} {
				if !take() {
					continue
				}
				run := func(disableFF bool) *sched.Result {
					p, err := NewProtocol(name)
					if err != nil {
						t.Fatal(err)
					}
					k, err := sched.New(set, p, sched.Config{
						Horizon:            sweepHorizon,
						Deadline:           sched.DeadlinePolicy(policy),
						StopOnDeadlock:     true,
						DisableFastForward: disableFF,
					})
					if err != nil {
						t.Fatal(err)
					}
					return k.Run()
				}
				label := fmt.Sprintf("set %d/%s/%s", i, name, pname)
				if fpFF, fpTick := fingerprint(set, run(false)), fingerprint(set, run(true)); fpFF != fpTick {
					t.Errorf("%s: fast-forward diverges from tick-by-tick\nfirst diff: %s", label, firstDiff(fpFF, fpTick))
				}
			}
		}
	}
}

// TestKernelBytesOnSweepRegime holds what the simulator allocates per
// released job on the benchmark's sweep cells, run as sim-sweep runs them:
// one RunBatch of the nine protocols per set under firm deadlines. A
// departed job keeps an 88-byte sched.JobRecord; its cc.Job, DataRead,
// workspace and blocker lists are in a box lent to it only while it is live.
// Tier-1 runs every tenth set; -fullsweep runs all 360 cells. Both read
// 343-344 B; when a departed job kept its 184-byte cc.Job they read 450-454 B,
// and when it kept its live state to the end of the run 573 B. In objects
// they read 0.15 and 0.17 per job; while the protocols copied every blocker
// set they answered with, 0.52 and 0.60.
func TestKernelBytesOnSweepRegime(t *testing.T) {
	if testenv.Race {
		t.Skip("the race runtime allocates")
	}
	const (
		budget        = 370  // bytes per released job
		objectsBudget = 0.35 // allocations per released job
	)
	stride := 10
	if *fullSweep {
		stride = 1
	}
	var cells [][]BatchRun
	for i := 0; i < sweepSets; i += stride {
		set, err := workload.Generate(sweepSetConfig(i))
		if err != nil {
			t.Fatal(err)
		}
		runs := make([]BatchRun, 0, len(Protocols()))
		for _, name := range Protocols() {
			runs = append(runs, BatchRun{Set: set, Protocol: name, Opts: Options{Horizon: sweepHorizon, FirmDeadlines: true, StopOnDeadlock: true}})
		}
		cells = append(cells, runs)
	}
	var jobs int64
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			jobs = 0
			for _, runs := range cells {
				results, err := RunBatch(runs)
				if err != nil {
					b.Fatal(err)
				}
				for _, res := range results {
					jobs += int64(len(res.Jobs))
				}
			}
		}
	})
	perJob, objects := r.AllocedBytesPerOp()/jobs, float64(r.AllocsPerOp())/float64(jobs)
	t.Logf("%d cells, %d jobs: %d B and %.3f allocations per released job", len(cells)*len(Protocols()), jobs, perJob, objects)
	if perJob > budget {
		t.Errorf("%d B per released job, budget %d", perJob, budget)
	}
	if objects > objectsBudget {
		t.Errorf("%.3f allocations per released job, budget %.2f", objects, objectsBudget)
	}
}
