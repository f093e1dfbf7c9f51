package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"pcpda/internal/sched"
	"pcpda/internal/sim"
	"pcpda/internal/txn"
	"pcpda/internal/workload"
)

// sweepSets is how many generated sets one segment simulates, each under
// all nine protocols.
const sweepSets = 40

// sweepConfig is the generator configuration of the sweep's i-th set.
func sweepConfig(i int) workload.Config {
	return workload.Config{
		N: 10, Items: 16, Utilization: 0.65,
		PeriodMin: 40, PeriodMax: 400,
		OpsMin: 2, OpsMax: 4, WriteProb: 0.5,
		HotItems: 4, HotProb: 0.5, Seed: int64(i + 1),
	}
}

// sweepOpts are the options of every simulated cell: firm deadlines, so a
// job that would be late is aborted at its deadline and counted, over a
// fixed horizon (37 periods of the slowest possible template). The horizon
// is explicit because sim.DefaultHorizon's hyperperiod overflows int64 on
// ten random periods before its own cap applies.
var sweepOpts = sim.Options{Horizon: 15_000, FirmDeadlines: true, StopOnDeadlock: true}

// sweepTotals are the exact, seed-deterministic counts of one pass over
// the sweep's cells.
type sweepTotals struct {
	jobs, committed, misses, restarts, blocked, ticks int64
}

func (t *sweepTotals) add(res *sched.Result) {
	t.jobs += int64(len(res.Jobs))
	t.committed += int64(res.Committed)
	t.misses += int64(res.Misses)
	t.restarts += int64(res.Restarts)
	t.ticks += int64(res.Horizon)
	for _, j := range res.Jobs {
		t.blocked += int64(j.BlockedTicks)
	}
}

// sweep is the simulator-kernel workload: the live stack does nothing.
type sweep struct {
	scale     int
	sets      []*txn.Set
	protocols []string
	workers   int
	trs       []*tracer
	lats      [][]int64
	lat       []int64
	first     *sweepTotals // the first segment's counts; every later segment must repeat them
	drift     error
}

func newSweep(scale int) *sweep { return &sweep{scale: scale} }

// setup generates the sets. They come from fixed generator seeds, so the
// simulated work and its committed/miss/restart counts are the same for
// every run; the run's seed decides where in the list a pass starts. It is
// a rotation by whole rounds, not a shuffle, so every worker keeps its sets
// and its neighbours in time: which results are live together decides the
// heap, and under a shuffle the resident set moved by a seventh with the seed.
func (s *sweep) setup(seed int64) error {
	s.protocols = sim.Protocols()
	s.workers = runtime.NumCPU()
	n := max(sweepSets/s.scale, 2)
	for i := 0; i < n; i++ {
		set, err := workload.Generate(sweepConfig(i))
		if err != nil {
			return err
		}
		s.sets = append(s.sets, set)
	}
	rot := s.workers * rand.New(rand.NewSource(seed)).Intn(max(len(s.sets)/s.workers, 1))
	s.sets = append(s.sets[rot:], s.sets[:rot]...)
	s.trs = make([]*tracer, s.workers)
	s.lats = make([][]int64, s.workers)
	return nil
}

// point simulates one sweep point: set under all nine protocols.
func (s *sweep) point(set *txn.Set, tot *sweepTotals) error {
	runs := make([]sim.BatchRun, len(s.protocols))
	for i, p := range s.protocols {
		runs[i] = sim.BatchRun{Set: set, Protocol: p, Opts: sweepOpts}
	}
	results, err := sim.RunBatch(runs)
	if err != nil {
		return err
	}
	for _, res := range results {
		tot.add(res)
	}
	return nil
}

// pass simulates every cell once, the sets dealt round-robin to workers
// goroutines, and returns the pass's exact counts.
func (s *sweep) pass(workers int, trace bool) (sweepTotals, error) {
	tots := make([]sweepTotals, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var tr *tracer
			if trace {
				if s.trs[w] == nil {
					s.trs[w] = newTracer(time.Now(), 1024)
				}
				tr = s.trs[w]
			}
			s.lats[w] = s.lats[w][:0]
			for i := w; i < len(s.sets); i += workers {
				start := time.Now()
				id := uint32(i)
				root := tr.begin(spPoint, id, -1)
				sp := tr.begin(spRunBatch, id, root)
				err := s.point(s.sets[i], &tots[w])
				tr.end(sp)
				tr.end(root)
				if err != nil {
					errs[w] = err
					return
				}
				s.lats[w] = append(s.lats[w], int64(time.Since(start)))
			}
		}()
	}
	wg.Wait()
	var tot sweepTotals
	for _, t := range tots {
		tot.jobs += t.jobs
		tot.committed += t.committed
		tot.misses += t.misses
		tot.restarts += t.restarts
		tot.blocked += t.blocked
		tot.ticks += t.ticks
	}
	return tot, errors.Join(errs...)
}

// segment is one pass over the same cells. A transaction is a simulated
// job: attempted = released, committed = committed before the horizon,
// ontime = not deadline-missed (under firm deadlines each miss is the
// abort, counted once). The latency unit is one sweep point.
func (s *sweep) segment(trace bool) (segStats, error) {
	tot, err := s.pass(s.workers, trace)
	if err != nil {
		return segStats{}, err
	}
	if s.first == nil {
		s.first = &tot
	} else if tot != *s.first && s.drift == nil {
		s.drift = fmt.Errorf("segment counts drifted: %+v, first segment %+v", tot, *s.first)
	}
	s.lat = s.lat[:0]
	for w := 0; w < s.workers; w++ {
		s.lat = append(s.lat, s.lats[w]...)
	}
	return segStats{attempted: tot.jobs, committed: tot.committed, ontime: tot.jobs - tot.misses, lat: s.lat}, nil
}

func (s *sweep) slices() int { return 1 }

// window collects the previous pass's results, which are garbage by now:
// every pass then starts from the same heap, and when the collector happens
// to run no longer decides the peak.
func (s *sweep) window() { runtime.GC() }

func (s *sweep) counters() counters { return counters{} }

func (s *sweep) tracers() []*tracer {
	var out []*tracer
	for _, t := range s.trs {
		if t != nil {
			out = append(out, t)
		}
	}
	return out
}

// verify checks that every segment produced the same exact counts and
// that a single-goroutine pass produces them too.
func (s *sweep) verify(_, _ counters, _ segStats, _ layerMetrics) error {
	if s.drift != nil {
		return s.drift
	}
	serial, err := s.pass(1, false)
	if err != nil {
		return err
	}
	if serial != *s.first {
		return fmt.Errorf("single-goroutine pass counted %+v, segments %+v", serial, *s.first)
	}
	return nil
}

func (s *sweep) close() {}
