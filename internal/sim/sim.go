// Package sim is the high-level simulation facade: it names the available
// protocols, runs one transaction set under one or many of them, and ties
// the kernel's result to the metrics layer. The command-line tools, the
// examples and the benchmarks all drive simulations through this package.
package sim

import (
	"fmt"
	"sort"

	"pcpda/internal/analysis"
	"pcpda/internal/cc"
	"pcpda/internal/ccp"
	"pcpda/internal/metrics"
	"pcpda/internal/naiveda"
	"pcpda/internal/occ"
	"pcpda/internal/opcp"
	"pcpda/internal/pcpda"
	"pcpda/internal/pip"
	"pcpda/internal/rt"
	"pcpda/internal/rwpcp"
	"pcpda/internal/sched"
	"pcpda/internal/tplhp"
	"pcpda/internal/txn"
)

// factories maps CLI names to protocol constructors and to what each
// protocol promises about every run (Verify checks it). A fresh protocol
// instance is built per run (protocols carry run-local state).
var factories = map[string]struct {
	make     func() cc.Protocol
	promises promises
}{
	"pcpda":     {func() cc.Protocol { return pcpda.New() }, pcpdaPromises},
	"pcpda-lc2": {func() cc.Protocol { return pcpda.NewWithOptions(pcpda.Options{LC2Only: true}) }, pcpdaPromises},
	"rwpcp":     {func() cc.Protocol { return rwpcp.New() }, promises{serializable: true, deadlockFree: true, bounded: true, kind: analysis.RWPCP}},
	"ccp":       {func() cc.Protocol { return ccp.New() }, promises{serializable: true, deadlockFree: true, bounded: true, kind: analysis.CCP}},
	"pcp":       {func() cc.Protocol { return opcp.New() }, promises{serializable: true, deadlockFree: true, bounded: true, kind: analysis.OPCP}},
	"pip":       {func() cc.Protocol { return pip.New() }, promises{serializable: true}},
	"2plhp":     {func() cc.Protocol { return tplhp.New() }, promises{serializable: true, deadlockFree: true}},
	"occ":       {func() cc.Protocol { return occ.New() }, promises{serializable: true, deadlockFree: true}},
	"naiveda":   {func() cc.Protocol { return naiveda.New() }, promises{}},
}

// Protocols returns the available protocol names, sorted.
func Protocols() []string {
	names := make([]string, 0, len(factories))
	for n := range factories {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// NewProtocol builds a fresh protocol instance by CLI name.
func NewProtocol(name string) (cc.Protocol, error) {
	f, ok := factories[name]
	if !ok {
		return nil, fmt.Errorf("sim: unknown protocol %q (have %v)", name, Protocols())
	}
	return f.make(), nil
}

// Options configures a facade run.
type Options struct {
	// Horizon is the tick count; 0 derives it from the set (hyperperiod +
	// max offset, or 64 ticks for pure one-shot sets).
	Horizon rt.Ticks
	// FirmDeadlines aborts jobs at their deadlines instead of recording
	// the miss and letting them finish.
	FirmDeadlines bool
	// Trace records the Gantt timeline and the ceiling track.
	Trace bool
	// TrackCeiling records the ceiling track (Result.MaxSysceil) WITHOUT
	// the per-tick timeline. Unlike Trace this keeps the kernel's
	// fast-forward optimization eligible, so it is the cheap way to ask
	// for Max_Sysceil in bulk sweeps. Implied by Trace.
	TrackCeiling bool
	// StopOnDeadlock halts a deadlocked run (always safe to leave on; a
	// deadlock-free protocol never triggers it).
	StopOnDeadlock bool
	// SporadicJitter stretches inter-arrivals of Sporadic templates
	// (uniform in [Period, Period·(1+J)]), seeded by Seed.
	SporadicJitter float64
	// Seed drives the sporadic-arrival RNG.
	Seed int64
	// DisableCeilingIndex has no effect: the kernel keeps no ceiling index
	// to disable (protocols read ceilings off lock.Table.Ceiling). The
	// field stays only because benchmark/probes.go sets it and a PR may not
	// edit the benchmark together with the code it measures; it goes with
	// that probe (ROADMAP 4(e)).
	DisableCeilingIndex bool
	// FaultAbortProb injects seeded transient faults into the kernel: after
	// every executed tick, with this probability, the running job is
	// firm-aborted (see sched.Config.FaultAbortProb). FaultSeed drives the
	// dedicated fault RNG.
	FaultAbortProb float64
	FaultSeed      int64
}

// DefaultHorizon derives a sensible horizon for set: one hyperperiod past
// the largest offset for periodic sets, or a small constant for one-shot
// demos. Random period sets can have astronomically large hyperperiods, so
// the horizon is capped at 50 times the longest period — long enough for
// the blocking statistics to stabilize, short enough to simulate quickly.
func DefaultHorizon(set *txn.Set) rt.Ticks {
	h := set.Hyperperiod()
	var maxOff, maxPeriod rt.Ticks
	var oneShotDemand rt.Ticks
	for _, t := range set.Templates {
		if t.Offset > maxOff {
			maxOff = t.Offset
		}
		if t.Period > maxPeriod {
			maxPeriod = t.Period
		}
		if t.OneShot() {
			oneShotDemand += t.Exec()
		}
	}
	if h == 0 {
		return maxOff + 4*oneShotDemand + 16
	}
	if cap := 50 * maxPeriod; h > cap {
		h = cap
	}
	return maxOff + h
}

// Run simulates set under the named protocol.
func Run(set *txn.Set, protocol string, opts Options) (*sched.Result, error) {
	p, err := NewProtocol(protocol)
	if err != nil {
		return nil, err
	}
	return RunProtocol(set, p, opts)
}

// RunProtocol simulates set under an already-constructed protocol instance.
// The instance must be fresh (one instance per run).
func RunProtocol(set *txn.Set, p cc.Protocol, opts Options) (*sched.Result, error) {
	horizon := opts.Horizon
	if horizon <= 0 {
		horizon = DefaultHorizon(set)
	}
	cfg := sched.Config{
		Horizon:        horizon,
		RecordTrace:    opts.Trace,
		TrackCeiling:   opts.Trace || opts.TrackCeiling,
		StopOnDeadlock: opts.StopOnDeadlock,
		SporadicJitter: opts.SporadicJitter,
		Seed:           opts.Seed,
		FaultAbortProb: opts.FaultAbortProb,
		FaultSeed:      opts.FaultSeed,
	}
	if opts.FirmDeadlines {
		cfg.Deadline = sched.FirmAbort
	}
	k, err := sched.New(set, p, cfg)
	if err != nil {
		return nil, err
	}
	return k.Run(), nil
}

// Comparison holds one protocol's run and summary in a side-by-side study.
type Comparison struct {
	Name    string
	Result  *sched.Result
	Summary metrics.Summary
}

// Compare runs set under each named protocol, one after another through
// RunBatch, and summarizes each run. The results are in argument order.
func Compare(set *txn.Set, protocols []string, opts Options) ([]Comparison, error) {
	runs := make([]BatchRun, len(protocols))
	for i, name := range protocols {
		runs[i] = BatchRun{Set: set, Protocol: name, Opts: opts}
	}
	results, err := RunBatch(runs)
	if err != nil {
		return nil, err
	}
	out := make([]Comparison, len(results))
	for i, res := range results {
		out[i] = Comparison{Name: protocols[i], Result: res, Summary: metrics.Summarize(res)}
	}
	return out, nil
}
