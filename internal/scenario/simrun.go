package scenario

import (
	"sort"

	"pcpda/internal/client"
	"pcpda/internal/sched"
	"pcpda/internal/sim"
)

// SimOptions tunes the sim backend.
type SimOptions struct {
	// Workers fans (phase, seed) cells across goroutines (sim.Fan). Results
	// are collected per cell and merged in deterministic order, so any
	// worker count produces byte-identical reports.
	Workers int
	// Protocols overrides the spec's protocol list (and the
	// all-protocols default).
	Protocols []string
}

// RunSim runs the scenario against the simulator kernel: every phase ×
// sweep seed is compiled to a one-shot set and simulated under every
// protocol via sim.RunBatch, and the per-phase SLO rows aggregate across
// the sweep. The report is a pure function of (spec, options): no clocks,
// no map iteration, deterministic merge.
func RunSim(spec *Spec, opts SimOptions) (*Report, error) {
	base, err := spec.BaseSet()
	if err != nil {
		return nil, err
	}
	protocols := opts.Protocols
	if len(protocols) == 0 {
		protocols = spec.Protocols
	}
	if len(protocols) == 0 {
		protocols = sim.Protocols()
	}

	// One cell per (phase, sweep seed): compile once, simulate every
	// protocol against the same compiled set (sim.RunBatch amortizes the
	// per-set setup across the protocol fan).
	type cell struct {
		phase, sweep int
		cp           *compiledPhase
		results      []*sched.Result // one per protocol, in protocols order
	}
	cells, err := sim.Fan(len(spec.Phases)*spec.Seeds, opts.Workers, func(i int) (cell, error) {
		c := cell{phase: i / spec.Seeds, sweep: i % spec.Seeds}
		ph := &spec.Phases[c.phase]
		cp, err := compilePhase(spec, ph, base, spec.phaseSeed(c.phase, c.sweep))
		if err != nil {
			return c, err
		}
		c.cp = cp
		simOpts := sim.Options{
			Horizon:        cp.horizon,
			FirmDeadlines:  true,
			StopOnDeadlock: true,
			Seed:           spec.phaseSeed(c.phase, c.sweep),
		}
		if f := ph.Faults; f != nil && f.AbortProb > 0 {
			simOpts.FaultAbortProb = f.AbortProb
			simOpts.FaultSeed = spec.phaseSeed(c.phase, c.sweep) ^ f.Seed
		}
		runs := make([]sim.BatchRun, len(protocols))
		for k, p := range protocols {
			runs[k] = sim.BatchRun{Set: cp.set, Protocol: p, Opts: simOpts}
		}
		c.results, err = sim.RunBatch(runs)
		return c, err
	})
	if err != nil {
		return nil, err // first by cell order: deterministic
	}

	// Aggregate: rows are (phase, protocol); cells merge in sweep-seed
	// order so pooled latencies (and therefore percentiles) are stable.
	rep := &Report{Scenario: spec.Name, Backend: "sim", Seed: spec.Seed, Seeds: spec.Seeds}
	for pi := range spec.Phases {
		ph := &spec.Phases[pi]
		for pr, proto := range protocols {
			row := PhaseReport{
				Phase:       ph.Name,
				Protocol:    proto,
				OfferedRate: MeanRate(ph.Arrival),
				Series:      make([]int64, client.Buckets),
			}
			var lats []float64
			tierAcc := make(map[int32]*TierSLO)
			for _, c := range cells {
				if c.phase != pi {
					continue
				}
				res := c.results[pr]
				accumulateSim(&row, tierAcc, &lats, res, c.cp, spec.TicksPerSecond)
			}
			sort.Float64s(lats)
			row.P50MS, row.P99MS, row.P999MS = percentileMS(lats)
			tiers := make([]int32, 0, len(tierAcc))
			for t := range tierAcc {
				tiers = append(tiers, t)
			}
			sort.Slice(tiers, func(a, b int) bool { return tiers[a] > tiers[b] })
			for _, t := range tiers {
				row.Tiers = append(row.Tiers, *tierAcc[t])
			}
			// The sim's arrival schedule is realized exactly (offsets are
			// template releases), so achieved == nominal by construction.
			row.AchievedRate = row.OfferedRate
			row.finish(float64(spec.Seeds) * ph.DurationS)
			rep.Rows = append(rep.Rows, row)
		}
	}
	phaseNames := make([]string, len(spec.Phases))
	for i := range spec.Phases {
		phaseNames[i] = spec.Phases[i].Name
	}
	sortRows(rep.Rows, phaseNames)
	return rep, nil
}

// accumulateSim folds one kernel run into a row: per-job outcomes keyed by
// the instance's tier, latencies in ms, commits bucketed over the phase
// window. Under FirmAbort every commit is on time (a job is killed at its
// deadline), so OnTime == Committed.
func accumulateSim(row *PhaseReport, tierAcc map[int32]*TierSLO, lats *[]float64,
	res *sched.Result, cp *compiledPhase, tps int) {
	row.Restarts += int64(res.Restarts)
	row.Aborted += int64(res.FaultAborts)
	msPerTick := 1000 / float64(tps)
	for _, j := range res.Jobs {
		tier := int32(cp.tier[j.Tmpl.ID])
		ts, ok := tierAcc[tier]
		if !ok {
			ts = &TierSLO{Tier: tier}
			tierAcc[tier] = ts
		}
		row.Offered++
		ts.Offered++
		if j.FinishTick < 0 {
			continue // deadline abort, injected fault, or cut off at the horizon
		}
		row.Committed++
		row.OnTime++
		ts.OnTime++
		*lats = append(*lats, float64(j.FinishTick-j.Release)*msPerTick)
		row.Series[min(int(j.FinishTick*client.Buckets/cp.durTicks), client.Buckets-1)]++
	}
}
