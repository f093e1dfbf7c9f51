package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"

	"pcpda/internal/rt"
	"pcpda/internal/sim"
	"pcpda/internal/txn"
)

// The sweep engine is configurable from the CLI: workerCount caps the
// goroutines runSeeds fans seeded runs across (0 = GOMAXPROCS) and
// horizonCap bounds per-run horizons so CI can smoke the full experiment
// suite on a reduced clock. Both are process-wide because the registry's
// Run closures take no parameters; they are set once before RunAll/RunOne.
var (
	workerCount atomic.Int64
	horizonCap  atomic.Int64
)

// SetWorkers caps the worker pool used for seeded sweeps. n <= 0 restores
// the default (GOMAXPROCS). Reports are identical for every n: seeded runs
// share nothing and results merge in seed order.
func SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	workerCount.Store(int64(n))
}

// Workers reports the effective sweep worker count.
func Workers() int {
	if n := workerCount.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// runSeeds evaluates fn for every seed in [0, n) on up to Workers()
// goroutines and returns the results in seed order, or the error of the
// lowest failing seed. Neither depends on which goroutine ran which seed:
// each call builds its own set and kernels, so every worker count prints
// the same report. It is the simulator side's one worker pool; the kernel
// packages themselves spawn nothing.
func runSeeds[T any](n int64, fn func(seed int64) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	next := make(chan int64)
	for w := max(1, min(int64(Workers()), n)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seed := range next {
				out[seed], errs[seed] = fn(seed)
			}
		}()
	}
	for seed := int64(0); seed < n; seed++ {
		next <- seed
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// SetHorizonCap bounds the horizon of every sweep simulation at t ticks
// (0 = no cap). Capped runs see fewer job instances, so the numbers change;
// this exists for CI smoke runs, not for reproducing the paper.
func SetHorizonCap(t rt.Ticks) {
	if t < 0 {
		t = 0
	}
	horizonCap.Store(int64(t))
}

// capHorizon returns opts with the engine's horizon cap applied to set's
// run. Sweep-style experiments route their runs through here; the tiny
// paper-example figures do not (their horizons are already a few dozen
// ticks, and capping them would break the exact paper traces they assert).
func capHorizon(set *txn.Set, opts sim.Options) sim.Options {
	if cap := rt.Ticks(horizonCap.Load()); cap > 0 {
		h := opts.Horizon
		if h <= 0 {
			h = sim.DefaultHorizon(set)
		}
		opts.Horizon = min(h, cap)
	}
	return opts
}
