package sim

import (
	"flag"
	"fmt"
	"testing"

	"pcpda/internal/sched"
	"pcpda/internal/txn"
	"pcpda/internal/workload"
)

// fullSweep widens TestFastForwardOnSweepRegime from a slice to the whole
// grid (go test ./internal/sim -run TestFastForwardOnSweepRegime -fullsweep,
// about 12 s); CI's sweeps job passes it.
var fullSweep = flag.Bool("fullsweep", false, "run TestFastForwardOnSweepRegime over all sweepSets sets")

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
// runs all of them (40 sets x 9 protocols x 2 policies = 720 cells).
func TestFastForwardOnSweepRegime(t *testing.T) {
	stride := 10
	if *fullSweep {
		stride = 1
	}
	for i := 0; i < sweepSets; i += stride {
		set, err := workload.Generate(sweepSetConfig(i))
		if err != nil {
			t.Fatal(err)
		}
		ceil := txn.ComputeCeilings(set)
		for _, name := range Protocols() {
			for policy, pname := range map[sched.DeadlinePolicy]string{sched.FirmAbort: "firm", sched.HardRecord: "hard"} {
				run := func(disableFF bool) *sched.Result {
					p, err := NewProtocol(name)
					if err != nil {
						t.Fatal(err)
					}
					k, err := sched.New(set, p, sched.Config{
						Horizon:            sweepHorizon,
						Deadline:           policy,
						StopOnDeadlock:     true,
						Ceilings:           ceil,
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
