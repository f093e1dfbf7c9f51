package scenario

import (
	"sort"

	"pcpda/internal/client"
	"pcpda/internal/sched"
	"pcpda/internal/sim"
)

// SimOptions tunes the sim backend.
type SimOptions struct {
	// Protocols overrides the spec's protocol list (and the
	// all-protocols default).
	Protocols []string
}

// RunSim runs the scenario against the simulator kernel: every phase ×
// sweep seed is compiled to a one-shot set and simulated under every
// protocol via sim.RunBatch, and the per-phase SLO rows aggregate across
// the sweep. The report is a pure function of (spec, options): one
// goroutine, no clocks, no map iteration.
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

	// Rows are (phase, protocol). Each phase's seeds run in sweep order,
	// every protocol against the same compiled set, and each result folds
	// into its protocol's row as its batch returns, so pooled latencies
	// (and therefore percentiles) are stable.
	type acc struct {
		row     PhaseReport
		tierAcc map[int32]*TierSLO
		lats    []float64
	}
	rep := &Report{Scenario: spec.Name, Backend: "sim", Seed: spec.Seed, Seeds: spec.Seeds}
	for pi := range spec.Phases {
		ph := &spec.Phases[pi]
		accs := make([]acc, len(protocols))
		for pr, proto := range protocols {
			accs[pr] = acc{
				row: PhaseReport{
					Phase:       ph.Name,
					Protocol:    proto,
					OfferedRate: MeanRate(ph.Arrival),
					Series:      make([]int64, client.Buckets),
				},
				tierAcc: make(map[int32]*TierSLO),
			}
		}
		for sweep := 0; sweep < spec.Seeds; sweep++ {
			seed := spec.phaseSeed(pi, sweep)
			cp, err := compilePhase(spec, ph, base, seed)
			if err != nil {
				return nil, err
			}
			simOpts := sim.Options{
				Horizon:        cp.horizon,
				FirmDeadlines:  true,
				StopOnDeadlock: true,
				Seed:           seed,
			}
			if f := ph.Faults; f != nil && f.AbortProb > 0 {
				simOpts.FaultAbortProb = f.AbortProb
				simOpts.FaultSeed = seed ^ f.Seed
			}
			runs := make([]sim.BatchRun, len(protocols))
			for k, p := range protocols {
				runs[k] = sim.BatchRun{Set: cp.set, Protocol: p, Opts: simOpts}
			}
			results, err := sim.RunBatch(runs)
			if err != nil {
				return nil, err
			}
			for pr, res := range results {
				a := &accs[pr]
				accumulateSim(&a.row, a.tierAcc, &a.lats, res, cp, spec.TicksPerSecond)
			}
		}
		for pr := range accs {
			a := &accs[pr]
			row := &a.row
			sort.Float64s(a.lats)
			row.P50MS, row.P99MS, row.P999MS = percentileMS(a.lats)
			tiers := make([]int32, 0, len(a.tierAcc))
			for t := range a.tierAcc {
				tiers = append(tiers, t)
			}
			sort.Slice(tiers, func(x, y int) bool { return tiers[x] > tiers[y] })
			for _, t := range tiers {
				row.Tiers = append(row.Tiers, *a.tierAcc[t])
			}
			// The sim's arrival schedule is realized exactly (offsets are
			// template releases), so achieved == nominal by construction.
			row.AchievedRate = row.OfferedRate
			row.finish(float64(spec.Seeds) * ph.DurationS)
			rep.Rows = append(rep.Rows, *row)
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
		tier := int32(cp.tier[j.Tmpl])
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
