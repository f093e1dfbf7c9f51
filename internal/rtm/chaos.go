package rtm

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"pcpda/internal/db"
	"pcpda/internal/fault"
	"pcpda/internal/history"
	"pcpda/internal/rt"
	"pcpda/internal/txn"
)

// ChaosConfig parameterizes RunChaos. Zero-valued knobs take the defaults
// noted on each field.
type ChaosConfig struct {
	// Schedules is the number of independent seeded fault schedules to run
	// (default 1). Schedule s uses seed Seed+s for its injector and its
	// workers' operation shuffles.
	Schedules int
	// Seed is the base seed.
	Seed int64
	// Workers is the number of concurrent transaction-issuing goroutines
	// per schedule (default 3).
	Workers int
	// Iters is the number of transactions each worker attempts (default 3).
	Iters int
	// Timeout is the per-schedule wall-clock budget; exceeding it means
	// the manager wedged and the schedule fails (default 10s).
	Timeout time.Duration
	// PDelay/PWakeup/PAbort/PCancel are the injection probabilities
	// (fault.Config). All zero means no injection — the schedule then only
	// exercises real expiring deadlines.
	PDelay, PWakeup, PAbort, PCancel float64
	// CancelProb is the probability that a worker runs one of its
	// transactions under a real deadline, a context.WithTimeout of up to
	// 200µs that may expire at any point of it (default 0.2).
	CancelProb float64
	// ReadOnlyProb is the probability that a worker iteration runs a
	// read-only snapshot transaction instead of an update. Every committed
	// RO transaction's observations are validated post-quiescence against
	// the committed state at its snapshot tick (history.CheckSnapshot);
	// a snapshot evicted by the chain bound is a tolerated typed refusal.
	ReadOnlyProb float64
}

// ChaosReport aggregates manager statistics across every schedule.
type ChaosReport struct {
	Schedules      int
	Begins         int
	Commits        int
	Aborts         int
	CycleAborts    int
	Cancellations  int
	Retries        int
	InjectedFaults int
	LockWaits      int
	CommitWaits    int
	ROBegins       int64
	ROCommits      int64
	ROEvictions    int64
	ROReadsChecked int // snapshot observations validated against the history
}

func (r *ChaosReport) add(s Stats) {
	r.Begins += s.Begins
	r.Commits += s.Commits
	r.Aborts += s.Aborts
	r.CycleAborts += s.CycleAborts
	r.Cancellations += s.Cancellations
	r.Retries += s.Retries
	r.InjectedFaults += s.InjectedFaults
	r.LockWaits += s.LockWaits
	r.CommitWaits += s.CommitWaits
	r.ROBegins += s.ROBegins
	r.ROCommits += s.ROCommits
	r.ROEvictions += s.ROEvictions
}

// String renders the report, one counter per line.
func (r *ChaosReport) String() string {
	return fmt.Sprintf(
		"schedules %d: begins %d, commits %d, aborts %d, cycle-aborts %d, "+
			"cancellations %d, retries %d, injected faults %d, "+
			"lock-waits %d, commit-waits %d, ro-begins %d, ro-commits %d, "+
			"ro-evictions %d, ro-reads-checked %d",
		r.Schedules, r.Begins, r.Commits, r.Aborts, r.CycleAborts,
		r.Cancellations, r.Retries, r.InjectedFaults,
		r.LockWaits, r.CommitWaits, r.ROBegins, r.ROCommits,
		r.ROEvictions, r.ROReadsChecked)
}

// RunChaos hammers a fresh manager per schedule with concurrent workers
// under seeded fault injection (forced delays, spurious wakeups, forced
// aborts, injected cancellations and real expiring deadlines), then
// audits the wreckage: the manager must be quiescent with no leaked state
// (CheckInvariants) and the recorded history must be serializable in commit
// order — by the batch checker, by the manager's continuous audit, and by a
// replay of the log through a fresh audit. The first schedule that fails
// aborts the run with an error naming its seed, so any failure is
// replayable.
func RunChaos(set *txn.Set, cfg ChaosConfig) (*ChaosReport, error) {
	if cfg.Schedules <= 0 {
		cfg.Schedules = 1
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 3
	}
	if cfg.Iters <= 0 {
		cfg.Iters = 3
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 10 * time.Second
	}
	if cfg.CancelProb == 0 {
		cfg.CancelProb = 0.2
	}
	rep := &ChaosReport{}
	for s := 0; s < cfg.Schedules; s++ {
		seed := cfg.Seed + int64(s)
		if err := runSchedule(set, cfg, seed, rep); err != nil {
			return rep, fmt.Errorf("chaos schedule %d (seed %d): %w", s, seed, err)
		}
		rep.Schedules++
	}
	return rep, nil
}

// runSchedule executes one seeded fault schedule and audits the result.
func runSchedule(set *txn.Set, cfg ChaosConfig, seed int64, rep *ChaosReport) error {
	inj := fault.NewSeeded(fault.Config{
		Seed:    seed,
		PDelay:  cfg.PDelay,
		PWakeup: cfg.PWakeup,
		PAbort:  cfg.PAbort,
		PCancel: cfg.PCancel,
	})
	m, err := NewWithOptions(set, Options{Injector: inj})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), cfg.Timeout)
	defer cancel()

	// Committed RO transactions record their observations here; they are
	// validated after quiescence, once the history is stable.
	var roMu sync.Mutex
	var roObs []roObservation

	var wg sync.WaitGroup
	errs := make(chan error, cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(wseed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(wseed))
			for i := 0; i < cfg.Iters; i++ {
				tmpl := set.Templates[rng.Intn(len(set.Templates))]
				var err error
				if cfg.ReadOnlyProb > 0 && rng.Float64() < cfg.ReadOnlyProb {
					err = chaosRO(ctx, m, rng, tmpl, func(ob roObservation) {
						roMu.Lock()
						roObs = append(roObs, ob)
						roMu.Unlock()
					})
				} else {
					err = chaosOnce(ctx, m, rng, tmpl, cfg.CancelProb)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(seed*31 + int64(w))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return err
		}
	}

	if st := m.Stats(); st.Live != 0 {
		return fmt.Errorf("%d transactions still live after quiescence", st.Live)
	}
	if m.Locks().LockCount() != 0 {
		return fmt.Errorf("%d locks leaked after quiescence", m.Locks().LockCount())
	}
	if err := m.CheckInvariants(); err != nil {
		return err
	}
	// CheckInvariants has judged the log twice: the batch checker over the
	// window (a schedule never outgrows it) and the live audit's latch. A
	// replay through a fresh audit must agree with both, commit for commit.
	hist, st := m.History(), m.Stats()
	if a := history.Replay(hist.Ops); a.Flagged() != 0 || a.Commits() != st.CommitsAudited {
		return fmt.Errorf("replayed audit: %d violations %v, %d commits against %d audited live",
			a.Flagged(), a.Violations(), a.Commits(), st.CommitsAudited)
	}
	for _, ob := range roObs {
		if vs := hist.CheckSnapshot(ob.snap, ob.reads); len(vs) > 0 {
			return fmt.Errorf("snapshot-read violation at tick %d: %s", ob.snap, vs[0].Detail)
		}
		rep.ROReadsChecked += len(ob.reads)
	}
	rep.add(st)
	return nil
}

// roObservation is one committed read-only transaction's evidence: its
// snapshot tick and everything it read.
type roObservation struct {
	snap  rt.Ticks
	reads []history.SnapshotRead
}

// chaosRO drives one read-only snapshot transaction over tmpl's declared
// access sets and records the full observation for post-quiescence
// validation. A snapshot evicted by the chain bound under the concurrent
// update hammer is the designed-for refusal and is tolerated (the handle
// is already aborted); a wrong answer would surface later in
// CheckSnapshot.
func chaosRO(ctx context.Context, m *Manager, rng *rand.Rand, tmpl *txn.Template, record func(roObservation)) error {
	ro, err := m.BeginReadOnly(ctx)
	if err != nil {
		return tolerate(ctx, err)
	}
	items := make([]rt.Item, 0, 8)
	items = append(items, tmpl.ReadSet().Items()...)
	items = append(items, tmpl.WriteSet().Items()...)
	rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })

	ob := roObservation{snap: ro.Snapshot()}
	for _, x := range items {
		_, ver, from, err := ro.ReadVersion(ctx, x)
		if err != nil {
			if errors.Is(err, db.ErrSnapshotEvicted) {
				return nil // typed retryable refusal; Read already aborted the handle
			}
			ro.Abort()
			return tolerate(ctx, err)
		}
		ob.reads = append(ob.reads, history.SnapshotRead{Item: x, Ver: ver, From: from})
	}
	if err := ro.Commit(ctx); err != nil {
		return err
	}
	record(ob)
	return nil
}

// chaosOnce drives one transaction over tmpl's declared access sets in a
// random order — half the time through Exec (exercising retry/backoff),
// half manually, possibly racing a real expiring deadline. Sacrifices and
// cancellations are the point of the exercise and are tolerated; anything
// else (including a wedge that exhausts the schedule's context budget)
// propagates as a failure.
func chaosOnce(ctx context.Context, m *Manager, rng *rand.Rand, tmpl *txn.Template, cancelProb float64) error {
	ops := make([]txn.Step, 0, 8)
	for _, x := range tmpl.ReadSet().Items() {
		ops = append(ops, txn.Read(x))
	}
	for _, x := range tmpl.WriteSet().Items() {
		ops = append(ops, txn.Write(x))
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })

	opCtx := ctx
	if rng.Float64() < cancelProb {
		var cancel context.CancelFunc
		opCtx, cancel = context.WithTimeout(ctx, time.Duration(rng.Intn(200))*time.Microsecond)
		defer cancel()
	}

	var err error
	if rng.Intn(2) == 0 {
		err = m.Exec(opCtx, tmpl.Name, func(tx *Txn) error {
			return applyOps(opCtx, tx, ops)
		})
	} else {
		var tx *Txn
		tx, err = m.Begin(opCtx, tmpl.Name)
		if err == nil {
			err = applyOps(opCtx, tx, ops)
			if err == nil {
				err = tx.Commit(opCtx)
			}
			tx.Abort() // no-op unless something above left it open
		}
	}
	return tolerate(ctx, err)
}

// applyOps performs the shuffled declared operations on tx.
func applyOps(ctx context.Context, tx *Txn, ops []txn.Step) error {
	for _, op := range ops {
		var err error
		if op.Kind == txn.ReadStep {
			_, err = tx.Read(ctx, op.Item)
		} else {
			err = tx.Write(ctx, op.Item, db.SyntheticValue(tx.run(), op.Item))
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// tolerate filters the failures a chaos schedule is designed to provoke.
// An error caused by the schedule's own context budget expiring (parent
// ctx) means the manager wedged and is NOT tolerated.
func tolerate(parent context.Context, err error) error {
	if err == nil {
		return nil
	}
	if parent.Err() != nil {
		return fmt.Errorf("schedule budget exhausted (wedged?): %w", err)
	}
	switch {
	case errors.Is(err, ErrAborted), errors.Is(err, ErrCancelled):
		return nil
	}
	return err
}
