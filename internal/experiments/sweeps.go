package experiments

import (
	"io"

	"pcpda/internal/analysis"
	"pcpda/internal/rt"
	"pcpda/internal/sim"
	"pcpda/internal/workload"
)

func init() {
	register("breakdown", "X1: fraction of random sets schedulable vs utilization (RM analysis)", breakdown)
	register("missratio", "X2: simulated deadline-miss ratio vs utilization (firm deadlines)", missRatio)
	register("blocking", "X3: blocking profile vs write probability", blockingProfile)
	register("restarts", "X4: restart overhead of the abort-based protocols (2PL-HP, OCC-BC)", restarts)
	register("ablation", "X5: LC3/LC4 ablation — what dynamic adjustment buys", ablation)
	register("cslength", "X6: blocking vs data-operation (critical-section) length", csLength)
	register("hotspot", "X7: blocking vs hot-spot access skew", hotspot)
}

// sweepConfig builds the workload config shared by the sweeps.
func sweepConfig(u float64, writeProb float64, seed int64) workload.Config {
	return workload.Config{
		N: 8, Items: 10, Utilization: u,
		PeriodMin: 40, PeriodMax: 800,
		OpsMin: 1, OpsMax: 4,
		WriteProb: writeProb, Seed: seed,
	}
}

const sweepReps = 40

// simPoint is one protocol's run on one seeded set, reduced to what the
// sweeps read.
type simPoint struct {
	blocked   rt.Ticks
	committed int
	misses    int
	deadlined int
	restarts  int
	grants34  int // LC3 + LC4 grants
	maxCeil   float64
	ceilCap   float64
}

// sweep generates the set cfg(seed) once for every seed in [0, n) and runs
// each protocol on it, so every column of a table compares the protocols on
// the same transactions. cells[seed][i] is protocols[i]'s point. Each run is
// reduced as soon as it returns, so a cell holds points, not results.
func sweep(n int, protocols []string, opts sim.Options, cfg func(seed int64) workload.Config) ([][]simPoint, error) {
	return runSeeds(int64(n), func(seed int64) ([]simPoint, error) {
		set, err := workload.Generate(cfg(seed))
		if err != nil {
			return nil, err
		}
		o := capHorizon(set, opts)
		pts := make([]simPoint, len(protocols))
		for i, p := range protocols {
			res, err := sim.Run(set, p, o)
			if err != nil {
				return nil, err
			}
			pt := &pts[i]
			for _, j := range res.Jobs {
				pt.blocked += j.BlockedTicks
				if j.AbsDeadline > 0 {
					pt.deadlined++
				}
			}
			pt.committed = res.Committed
			pt.misses = res.Misses
			pt.restarts = res.Restarts
			pt.grants34 = res.Decisions.Of("LC3").Grants + res.Decisions.Of("LC4").Grants
			pt.maxCeil = float64(res.MaxSysceil)
			pt.ceilCap = float64(len(set.Templates))
		}
		return pts, nil
	})
}

// blockedPerCommit is protocol p's mean blocked ticks per committed job over
// a sweep's cells (0 when nothing committed).
func blockedPerCommit(cells [][]simPoint, p int) float64 {
	var blocked rt.Ticks
	var committed int
	for _, c := range cells {
		blocked += c[p].blocked
		committed += c[p].committed
	}
	if committed == 0 {
		return 0
	}
	return float64(blocked) / float64(committed)
}

func breakdown(w io.Writer) error {
	kinds := []analysis.Kind{analysis.PCPDA, analysis.RWPCP, analysis.CCP, analysis.OPCP, analysis.PIP}
	pln(w, "fraction of random transaction sets passing the RM condition")
	pf(w, "(N=8, %d sets per point, write probability 0.4)\n\n", sweepReps)
	pf(w, "%-6s", "U")
	for _, k := range kinds {
		pf(w, " %8s", k)
	}
	pln(w)

	// Remember fractions at a mid utilization for the shape check.
	var fracAt50 = map[analysis.Kind]float64{}
	for _, u := range []float64{0.2, 0.3, 0.4, 0.5, 0.6, 0.7} {
		verdicts, err := runSeeds(sweepReps, func(seed int64) ([]bool, error) {
			set, err := workload.Generate(sweepConfig(u, 0.4, 7000+seed))
			if err != nil {
				return nil, err
			}
			ok := make([]bool, len(kinds))
			for i, k := range kinds {
				rep, err := analysis.RMTest(set, k)
				if err != nil {
					return nil, err
				}
				ok[i] = rep.Schedulable
			}
			return ok, nil
		})
		if err != nil {
			return err
		}
		pf(w, "%-6.2f", u)
		for i, k := range kinds {
			pass := 0
			for _, ok := range verdicts {
				if ok[i] {
					pass++
				}
			}
			frac := float64(pass) / sweepReps
			if u == 0.5 {
				fracAt50[k] = frac
			}
			pf(w, " %8.2f", frac)
		}
		pln(w)
	}
	pln(w)
	check(w, fracAt50[analysis.PCPDA] >= fracAt50[analysis.RWPCP],
		"PCP-DA admits at least as many sets as RW-PCP at U=0.5 (%.2f vs %.2f)",
		fracAt50[analysis.PCPDA], fracAt50[analysis.RWPCP])
	check(w, fracAt50[analysis.RWPCP] >= fracAt50[analysis.OPCP],
		"RW-PCP admits at least as many sets as exclusive PCP at U=0.5 (%.2f vs %.2f)",
		fracAt50[analysis.RWPCP], fracAt50[analysis.OPCP])
	check(w, fracAt50[analysis.PCPDA] >= fracAt50[analysis.PIP],
		"PCP-DA admits at least as many sets as PIP at U=0.5 (%.2f vs %.2f)",
		fracAt50[analysis.PCPDA], fracAt50[analysis.PIP])
	return nil
}

func missRatio(w io.Writer) error {
	protocols := []string{"pcpda", "rwpcp", "ccp", "pcp", "2plhp", "occ"}
	pln(w, "simulated deadline-miss ratio under firm deadlines")
	pf(w, "(N=8, %d seeds per point, write probability 0.4, horizon 50×max period)\n\n", sweepReps/2)
	pf(w, "%-6s", "U")
	for _, p := range protocols {
		pf(w, " %8s", p)
	}
	pln(w)

	ratioAt := map[string]map[float64]float64{}
	for _, p := range protocols {
		ratioAt[p] = map[float64]float64{}
	}
	for _, u := range []float64{0.4, 0.6, 0.8, 1.0, 1.2} {
		cells, err := sweep(sweepReps/2, protocols,
			sim.Options{FirmDeadlines: true, StopOnDeadlock: true},
			func(seed int64) workload.Config { return sweepConfig(u, 0.4, 9000+seed) })
		if err != nil {
			return err
		}
		pf(w, "%-6.2f", u)
		for i, p := range protocols {
			var misses, jobs int
			for _, c := range cells {
				misses += c[i].misses
				jobs += c[i].deadlined
			}
			r := 0.0
			if jobs > 0 {
				r = float64(misses) / float64(jobs)
			}
			ratioAt[p][u] = r
			pf(w, " %8.4f", r)
		}
		pln(w)
	}
	pln(w)
	check(w, ratioAt["pcpda"][0.8] <= ratioAt["rwpcp"][0.8],
		"PCP-DA misses no more than RW-PCP at U=0.8 (%.4f vs %.4f)",
		ratioAt["pcpda"][0.8], ratioAt["rwpcp"][0.8])
	check(w, ratioAt["pcpda"][1.0] <= ratioAt["pcp"][1.0],
		"PCP-DA misses no more than exclusive PCP at U=1.0 (%.4f vs %.4f)",
		ratioAt["pcpda"][1.0], ratioAt["pcp"][1.0])
	return nil
}

func blockingProfile(w io.Writer) error {
	protocols := []string{"pcpda", "rwpcp", "ccp", "pcp"}
	pln(w, "mean blocked ticks per committed job, and Max_Sysceil height, vs write probability")
	pf(w, "(N=8, U=0.55, %d seeds per point; ceiling height is the fraction of the priority range)\n\n", sweepReps/2)
	pf(w, "%-6s", "wp")
	for _, p := range protocols {
		pf(w, " %14s", p+" blk/ceil")
	}
	pln(w)

	blockAt := map[string]map[float64]float64{}
	for _, p := range protocols {
		blockAt[p] = map[float64]float64{}
	}
	for _, wp := range []float64{0.0, 0.2, 0.4, 0.6, 0.8, 1.0} {
		// TrackCeiling (not Trace): the profile only reads Max_Sysceil,
		// and skipping the timeline keeps the kernel's fast-forward
		// eligible.
		cells, err := sweep(sweepReps/2, protocols,
			sim.Options{TrackCeiling: true, StopOnDeadlock: true},
			func(seed int64) workload.Config { return sweepConfig(0.55, wp, 11000+seed) })
		if err != nil {
			return err
		}
		pf(w, "%-6.2f", wp)
		for i, p := range protocols {
			var ceilSum, ceilMax float64
			for _, c := range cells {
				ceilSum += c[i].maxCeil
				ceilMax += c[i].ceilCap
			}
			mean := blockedPerCommit(cells, i)
			blockAt[p][wp] = mean
			pf(w, "   %6.3f/%.2f", mean, ceilSum/ceilMax)
		}
		pln(w)
	}
	pln(w)
	check(w, blockAt["pcpda"][0.4] <= blockAt["rwpcp"][0.4],
		"PCP-DA blocks less than RW-PCP at wp=0.4 (%.3f vs %.3f)",
		blockAt["pcpda"][0.4], blockAt["rwpcp"][0.4])
	check(w, blockAt["pcpda"][1.0] <= blockAt["rwpcp"][1.0],
		"with only blind writes PCP-DA blocking collapses (%.3f vs %.3f)",
		blockAt["pcpda"][1.0], blockAt["rwpcp"][1.0])
	check(w, blockAt["ccp"][0.4] <= blockAt["rwpcp"][0.4],
		"CCP blocks no more than RW-PCP at wp=0.4 (%.3f vs %.3f)",
		blockAt["ccp"][0.4], blockAt["rwpcp"][0.4])
	return nil
}

func restarts(w io.Writer) error {
	protocols := []string{"2plhp", "occ", "pcpda"}
	pln(w, "restart counts of the abort-based protocols (2PL-HP, OCC-BC) vs the")
	pln(w, "no-restart guarantee of PCP-DA")
	pf(w, "(N=8, write probability 0.6, %d seeds per point)\n\n", sweepReps/2)
	pf(w, "%-6s %10s %10s %10s %10s %12s %12s\n",
		"U", "hp-restart", "hp-miss", "occ-rsts", "occ-miss", "pcpda-rsts", "pcpda-miss")
	totalHP, totalOCC, totalDA := 0, 0, 0
	for _, u := range []float64{0.4, 0.6, 0.8} {
		cells, err := sweep(sweepReps/2, protocols, sim.Options{StopOnDeadlock: true},
			func(seed int64) workload.Config { return sweepConfig(u, 0.6, 13000+seed) })
		if err != nil {
			return err
		}
		var sum [3]simPoint
		for _, c := range cells {
			for i := range sum {
				sum[i].restarts += c[i].restarts
				sum[i].misses += c[i].misses
			}
		}
		hp, oc, da := sum[0], sum[1], sum[2]
		totalHP += hp.restarts
		totalOCC += oc.restarts
		totalDA += da.restarts
		pf(w, "%-6.2f %10d %10d %10d %10d %12d %12d\n",
			u, hp.restarts, hp.misses, oc.restarts, oc.misses, da.restarts, da.misses)
	}
	pln(w)
	check(w, totalDA == 0, "PCP-DA never restarts a transaction (got %d)", totalDA)
	check(w, totalHP > 0, "2PL-HP pays restart overhead on contended workloads (got %d)", totalHP)
	check(w, totalOCC > 0, "OCC-BC pays restart overhead on contended workloads (got %d)", totalOCC)
	return nil
}

func ablation(w io.Writer) error {
	pln(w, "LC3/LC4 ablation: PCP-DA vs PCP-DA restricted to LC1+LC2")
	pf(w, "(N=8, U=0.55, write probability 0.5, %d seeds)\n\n", sweepReps)
	cells, err := sweep(sweepReps, []string{"pcpda", "pcpda-lc2"}, sim.Options{StopOnDeadlock: true},
		func(seed int64) workload.Config { return sweepConfig(0.55, 0.5, 15000+seed) })
	if err != nil {
		return err
	}
	var full, lc2 simPoint
	for _, c := range cells {
		full.blocked += c[0].blocked
		lc2.blocked += c[1].blocked
		full.grants34 += c[0].grants34
		full.misses += c[0].misses
		lc2.misses += c[1].misses
	}
	pf(w, "  total blocked ticks: full=%d lc2-only=%d\n", full.blocked, lc2.blocked)
	pf(w, "  LC3+LC4 grants under full PCP-DA: %d\n", full.grants34)
	pf(w, "  deadline misses: full=%d lc2-only=%d\n\n", full.misses, lc2.misses)
	check(w, full.blocked <= lc2.blocked,
		"LC3/LC4 reduce aggregate blocking (%d vs %d)", full.blocked, lc2.blocked)
	check(w, full.grants34 > 0, "LC3/LC4 actually fire on contended workloads (%d grants)", full.grants34)
	return nil
}

func csLength(w io.Writer) error {
	protocols := []string{"pcpda", "rwpcp", "pcp"}
	pln(w, "mean blocked ticks per committed job vs maximum data-operation length")
	pln(w, "(longer accesses = longer critical sections = larger blocking terms;")
	pf(w, " N=8, U=0.55, write probability 0.4, %d seeds per point)\n\n", sweepReps/2)
	pf(w, "%-8s", "opdur")
	for _, p := range protocols {
		pf(w, " %9s", p)
	}
	pln(w)

	blockAt := map[string]map[rt.Ticks]float64{}
	for _, p := range protocols {
		blockAt[p] = map[rt.Ticks]float64{}
	}
	for _, dur := range []rt.Ticks{1, 2, 4, 8} {
		cells, err := sweep(sweepReps/2, protocols, sim.Options{StopOnDeadlock: true},
			func(seed int64) workload.Config {
				cfg := sweepConfig(0.55, 0.4, 17000+seed)
				cfg.OpDurMax = dur
				return cfg
			})
		if err != nil {
			return err
		}
		pf(w, "%-8d", dur)
		for i, p := range protocols {
			blockAt[p][dur] = blockedPerCommit(cells, i)
			pf(w, " %9.3f", blockAt[p][dur])
		}
		pln(w)
	}
	pln(w)
	check(w, blockAt["pcpda"][8] <= blockAt["rwpcp"][8],
		"PCP-DA's advantage survives long critical sections (%.3f vs %.3f at opdur=8)",
		blockAt["pcpda"][8], blockAt["rwpcp"][8])
	check(w, blockAt["rwpcp"][8] >= blockAt["rwpcp"][1],
		"longer accesses mean more blocking under RW-PCP (%.3f vs %.3f)",
		blockAt["rwpcp"][8], blockAt["rwpcp"][1])
	return nil
}

func hotspot(w io.Writer) error {
	protocols := []string{"pcpda", "rwpcp", "ccp", "pcp"}
	pln(w, "mean blocked ticks per committed job vs hot-spot skew")
	pln(w, "(2 of 10 items are 'hot'; each access targets the hot region with the")
	pf(w, " given probability; N=8, U=0.55, wp=0.4, %d seeds per point)\n\n", sweepReps/2)
	pf(w, "%-8s", "hotprob")
	for _, p := range protocols {
		pf(w, " %9s", p)
	}
	pln(w)

	blockAt := map[string]map[float64]float64{}
	for _, p := range protocols {
		blockAt[p] = map[float64]float64{}
	}
	for _, hp := range []float64{0.0, 0.3, 0.6, 0.9} {
		cells, err := sweep(sweepReps/2, protocols, sim.Options{StopOnDeadlock: true},
			func(seed int64) workload.Config {
				cfg := sweepConfig(0.55, 0.4, 19000+seed)
				cfg.HotItems = 2
				cfg.HotProb = hp
				return cfg
			})
		if err != nil {
			return err
		}
		pf(w, "%-8.2f", hp)
		for i, p := range protocols {
			blockAt[p][hp] = blockedPerCommit(cells, i)
			pf(w, " %9.3f", blockAt[p][hp])
		}
		pln(w)
	}
	pln(w)
	check(w, blockAt["rwpcp"][0.9] > blockAt["rwpcp"][0.0],
		"hot-spot contention drives RW-PCP blocking up (%.3f vs %.3f)",
		blockAt["rwpcp"][0.9], blockAt["rwpcp"][0.0])
	check(w, blockAt["pcpda"][0.9] <= blockAt["rwpcp"][0.9],
		"PCP-DA absorbs the skew better (%.3f vs %.3f at hotprob=0.9)",
		blockAt["pcpda"][0.9], blockAt["rwpcp"][0.9])
	return nil
}
