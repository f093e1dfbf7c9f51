package sim

import (
	"strings"
	"testing"

	"pcpda/internal/cc"
	"pcpda/internal/metrics"
	"pcpda/internal/papercases"
	"pcpda/internal/rt"
	"pcpda/internal/sched"
	"pcpda/internal/workload"
)

func TestProtocolsRegistry(t *testing.T) {
	names := Protocols()
	if len(names) != 9 {
		t.Fatalf("protocols = %v", names)
	}
	for _, n := range names {
		p, err := NewProtocol(n)
		if err != nil || p == nil {
			t.Errorf("%s: %v", n, err)
		}
	}
	if _, err := NewProtocol("bogus"); err == nil {
		t.Error("unknown protocol accepted")
	}
}

// TestOptionalInterfaces pins which protocols implement which optional part
// of the contract beyond cc.Protocol's four methods.
func TestOptionalInterfaces(t *testing.T) {
	want := map[string]string{
		"pcpda": "ceiling", "pcpda-lc2": "ceiling", "rwpcp": "ceiling", "pcp": "ceiling",
		"ccp": "ceiling early", "occ": "arbiter",
	}
	for _, n := range Protocols() {
		p, err := NewProtocol(n)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		if _, ok := p.(cc.CeilingReporter); ok {
			got = append(got, "ceiling")
		}
		if _, ok := p.(cc.EarlyReleaser); ok {
			got = append(got, "early")
		}
		if _, ok := p.(cc.CommitArbiter); ok {
			got = append(got, "arbiter")
		}
		if s := strings.Join(got, " "); s != want[n] {
			t.Errorf("%s implements %q, want %q", n, s, want[n])
		}
	}
}

func TestDefaultHorizon(t *testing.T) {
	s := papercases.Example3() // T1 period 5 offset 1; T2 one-shot
	if h := DefaultHorizon(s); h != 6 {
		t.Errorf("horizon = %d, want offset+hyperperiod = 6", h)
	}
	one := papercases.Example1() // all one-shot, offsets ≤ 2, demand 5
	if h := DefaultHorizon(one); h != 2+4*5+16 {
		t.Errorf("one-shot horizon = %d", h)
	}
}

// Ten random periods have a common multiple far beyond int64; the horizon
// must come out as the 50-period cap, not as whatever the product wrapped
// to. These are the benchmark's sim-sweep sets (generator seeds 1..40).
func TestDefaultHorizonLargeHyperperiod(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		set, err := workload.Generate(workload.Config{
			N: 10, Items: 16, Utilization: 0.65,
			PeriodMin: 40, PeriodMax: 400,
			OpsMin: 2, OpsMax: 4, WriteProb: 0.5,
			HotItems: 4, HotProb: 0.5, Seed: seed,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		var maxOff, maxPeriod rt.Ticks
		for _, tm := range set.Templates {
			maxOff = max(maxOff, tm.Offset)
			maxPeriod = max(maxPeriod, tm.Period)
		}
		if h := DefaultHorizon(set); h <= 0 || h > maxOff+50*maxPeriod {
			t.Errorf("seed %d: horizon %d outside (0, %d]", seed, h, maxOff+50*maxPeriod)
		}
	}
}

func TestRunAndCompare(t *testing.T) {
	comps, err := Compare(papercases.Example4(), []string{"pcpda", "rwpcp", "ccp", "pcp"}, Options{
		Horizon: papercases.Example4Horizon, Trace: true, StopOnDeadlock: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(comps) != 4 {
		t.Fatalf("comparisons = %d", len(comps))
	}
	da, rw := comps[0].Summary, comps[1].Summary
	if da.TotalBlocked >= rw.TotalBlocked {
		t.Errorf("PCP-DA blocking %d !< RW-PCP %d on Example 4", da.TotalBlocked, rw.TotalBlocked)
	}
	table := metrics.Table([]metrics.Summary{da, rw})
	if len(table) == 0 {
		t.Error("empty table")
	}
}

// propertyConfig builds random workload configs for the sweeps.
func propertyConfigs() []workload.Config {
	var cfgs []workload.Config
	for seed := int64(1); seed <= 40; seed++ {
		cfgs = append(cfgs, workload.Config{
			N: 5, Items: 6, Utilization: 0.55,
			PeriodMin: 25, PeriodMax: 300,
			OpsMin: 1, OpsMax: 4,
			WriteProb: 0.4, Seed: seed,
		})
		cfgs = append(cfgs, workload.Config{
			N: 8, Items: 4, Utilization: 0.5, // high contention pool
			PeriodMin: 40, PeriodMax: 600,
			OpsMin: 2, OpsMax: 4,
			WriteProb: 0.6, Seed: seed + 1000,
		})
	}
	return cfgs
}

// verifySweep runs each protocol over the sets cfgs generate, holds every
// run by Verify to what its protocol promises, and returns each protocol's
// total blocking and deadline misses.
func verifySweep(t *testing.T, cfgs []workload.Config, protocols ...string) (agg, aggMiss map[string]int64) {
	t.Helper()
	agg, aggMiss = map[string]int64{}, map[string]int64{}
	for _, cfg := range cfgs {
		set, err := workload.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range protocols {
			res, err := Run(set, name, Options{StopOnDeadlock: true})
			if err != nil {
				t.Fatalf("seed %d %s: %v", cfg.Seed, name, err)
			}
			for _, v := range Verify(name, res) {
				t.Errorf("seed %d %s: %s", cfg.Seed, name, v)
			}
			agg[name] += int64(tb(res))
			aggMiss[name] += int64(res.Misses)
		}
	}
	return agg, aggMiss
}

// TestPropertySweep is the repository's central correctness sweep: 80
// random workloads under the ceiling protocols, each run held by Verify to
// what its protocol promises.
func TestPropertySweep(t *testing.T) {
	agg, aggMiss := verifySweep(t, propertyConfigs(), "pcpda", "pcpda-lc2", "rwpcp", "ccp", "pcp")

	// P8: per-seed totals can invert locally (granting a lock earlier
	// reshuffles later races), so dominance is asserted on the aggregate
	// over the whole sweep — that is the claim the paper's examples make
	// ("blocking that happens under PCP-DA must happen under RW-PCP"),
	// observable as a population-level shape.
	if agg["pcpda"] > agg["rwpcp"] {
		t.Errorf("aggregate blocking: PCP-DA %d > RW-PCP %d", agg["pcpda"], agg["rwpcp"])
	}
	if agg["pcpda"] > agg["pcpda-lc2"] {
		t.Errorf("aggregate blocking: full PCP-DA %d > LC2-only %d", agg["pcpda"], agg["pcpda-lc2"])
	}
	if agg["ccp"] > agg["rwpcp"] {
		t.Errorf("aggregate blocking: CCP %d > RW-PCP %d", agg["ccp"], agg["rwpcp"])
	}
	if agg["rwpcp"] > agg["pcp"] {
		t.Errorf("aggregate blocking: RW-PCP %d > exclusive PCP %d", agg["rwpcp"], agg["pcp"])
	}
	if aggMiss["pcpda"] > aggMiss["rwpcp"] {
		t.Errorf("aggregate misses: PCP-DA %d > RW-PCP %d", aggMiss["pcpda"], aggMiss["rwpcp"])
	}
}

// TestAbortProtocolsSweep runs the restart-based and inheritance-only
// baselines over the first 40 sweep workloads, each run held by Verify to
// what its protocol promises. PIP may deadlock (StopOnDeadlock ends the run)
// but still owes a serializable history.
func TestAbortProtocolsSweep(t *testing.T) {
	verifySweep(t, propertyConfigs()[:40], "2plhp", "pip")
}

// TestTrackedVsUntracked ensures trace recording does not change outcomes.
func TestTraceDoesNotPerturb(t *testing.T) {
	set, err := workload.Generate(workload.Config{
		N: 6, Items: 5, Utilization: 0.6, PeriodMin: 30, PeriodMax: 200,
		OpsMin: 1, OpsMax: 3, WriteProb: 0.5, Seed: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := Run(set, "pcpda", Options{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(set, "pcpda", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Committed != b.Committed || a.Misses != b.Misses || a.IdleTicks != b.IdleTicks {
		t.Fatalf("trace changed outcome: %d/%d/%d vs %d/%d/%d",
			a.Committed, a.Misses, a.IdleTicks, b.Committed, b.Misses, b.IdleTicks)
	}
	if a.History.String() != b.History.String() {
		t.Fatal("trace changed the history")
	}
}

func TestFirmDeadlinesOption(t *testing.T) {
	set, err := workload.Generate(workload.Config{
		N: 6, Items: 3, Utilization: 1.6, // overload: misses guaranteed
		PeriodMin: 20, PeriodMax: 100,
		OpsMin: 1, OpsMax: 3, WriteProb: 0.5, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(set, "pcpda", Options{FirmDeadlines: true, Horizon: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Misses == 0 || res.Aborts == 0 {
		t.Fatalf("overloaded firm run: misses=%d aborts=%d", res.Misses, res.Aborts)
	}
	if res.Misses != res.Aborts {
		t.Fatalf("firm policy must abort every missed job: %d vs %d", res.Misses, res.Aborts)
	}
	for _, v := range Verify("pcpda", res) {
		t.Errorf("firm aborts broke a promise: %s", v)
	}
}

func tb(res *sched.Result) rt.Ticks {
	var total rt.Ticks
	for _, j := range res.Jobs {
		total += j.BlockedTicks
	}
	return total
}
