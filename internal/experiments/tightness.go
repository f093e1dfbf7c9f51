package experiments

import (
	"io"

	"pcpda/internal/analysis"
	"pcpda/internal/metrics"
	"pcpda/internal/rt"
	"pcpda/internal/sim"
	"pcpda/internal/stats"
	"pcpda/internal/workload"
)

func init() {
	register("tightness", "X8: analysis soundness & tightness — worst observed response vs response-time bound", tightness)
}

// tightness compares, per transaction over many random schedulable sets,
// the worst response time ever observed in simulation against the analytic
// response-time bound (with the protocol's blocking term). Soundness means
// observed ≤ bound on every single job; tightness is the mean
// observed/bound ratio (1.0 = the analysis is exact, lower = conservative).
func tightness(w io.Writer) error {
	kinds := []struct {
		proto string
		kind  analysis.Kind
	}{
		{"pcpda", analysis.PCPDA},
		{"rwpcp", analysis.RWPCP},
	}
	pln(w, "worst observed response time vs analytic bound on RTA-schedulable sets")
	pf(w, "(N=6, U=0.5, wp=0.4, %d random sets, horizon 50×max period)\n\n", sweepReps)
	pf(w, "%-8s %10s %12s %14s %14s\n", "protocol", "sets", "violations", "mean obs/bnd", "max obs/bnd")

	violations := make([]int, len(kinds))
	setsUsed := make([]int, len(kinds))
	ratio := make([]stats.Stream, len(kinds))
	for seed := int64(0); seed < sweepReps; seed++ {
		set, err := workload.Generate(workload.Config{
			N: 6, Items: 8, Utilization: 0.5,
			PeriodMin: 30, PeriodMax: 500,
			OpsMin: 1, OpsMax: 4, WriteProb: 0.4,
			Seed: 21000 + seed,
		})
		if err != nil {
			return err
		}
		opts := capHorizon(set, sim.Options{StopOnDeadlock: true})
		for i, pk := range kinds {
			rta, err := analysis.ResponseTimeTest(set, pk.kind)
			if err != nil {
				return err
			}
			if !rta.Schedulable {
				continue // the bound only promises anything for admitted sets
			}
			setsUsed[i]++
			res, err := sim.Run(set, pk.proto, opts)
			if err != nil {
				return err
			}
			if res.Misses > 0 {
				// An admitted set missing a deadline would itself be a
				// soundness violation.
				violations[i]++
				continue
			}
			bounds := map[string]rt.Ticks{}
			for _, v := range rta.Verdicts {
				bounds[v.Txn.Name] = v.Response
			}
			for _, s := range metrics.PerTxn(res) {
				b := bounds[s.Name]
				if b <= 0 || s.Completed == 0 {
					continue
				}
				if s.MaxResponse > b {
					violations[i]++
				}
				ratio[i].Add(float64(s.MaxResponse) / float64(b))
			}
		}
	}
	for i, pk := range kinds {
		pf(w, "%-8s %10d %12d %14.3f %14.3f\n",
			pk.proto, setsUsed[i], violations[i], ratio[i].Mean(), ratio[i].Max())
		check(w, violations[i] == 0,
			"%s: no job ever exceeds its response-time bound on admitted sets (%d violations over %d sets)",
			pk.proto, violations[i], setsUsed[i])
	}
	pln(w)
	pln(w, "ratios below 1 quantify the analysis' conservatism: the simulated")
	pln(w, "phasings rarely realize the critical instant + worst-case blocking.")
	return nil
}
