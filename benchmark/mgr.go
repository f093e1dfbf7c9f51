package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"pcpda/internal/db"
	"pcpda/internal/rt"
	"pcpda/internal/rtm"
	"pcpda/internal/txn"
)

// mgr-contended's fixed shape.
const (
	mgrWorkers   = 8       // one per template: Begin is non-reentrant per template
	mgrPoolItems = 4       // shared items every template reads one and writes another of
	mgrSegTxns   = 250_000 // transactions per segment, split evenly over the workers
	mgrSampling  = 16      // latency (and spans) sampled one transaction in this many
	mgrBudget    = 100 * time.Microsecond
)

// contendedSet is the manager's high-contention set: mgrWorkers templates
// over a mgrPoolItems-item pool, template i reading item i and writing
// item i+2 (mod the pool), priorities by index.
func contendedSet() *txn.Set {
	s := txn.NewSet("mgr-contended")
	pool := make([]rt.Item, mgrPoolItems)
	for i := range pool {
		pool[i] = s.Catalog.Intern(fmt.Sprintf("s%d", i))
	}
	for i := 0; i < mgrWorkers; i++ {
		s.Add(&txn.Template{
			Name:  fmt.Sprintf("T%d", i),
			Steps: []txn.Step{txn.Read(pool[i%mgrPoolItems]), txn.Write(pool[(i+2)%mgrPoolItems])},
		})
	}
	s.AssignByIndex()
	return s
}

// mgrBench drives an in-process rtm.Manager with no wire in front of it.
type mgrBench struct {
	scale   int
	set     *txn.Set
	mgr     *rtm.Manager
	workers []*mgrWorker
	lat     []int64
}

// mgrWorker is one goroutine's share of the load: its template, its value
// stream and its sample buffers.
type mgrWorker struct {
	tmpl *txn.Template
	rng  *rand.Rand
	lat  []int64
	tr   *tracer
	id   uint32
	seq  uint32
}

func newMgr(scale int) *mgrBench { return &mgrBench{scale: scale} }

func (b *mgrBench) setup(seed int64) error {
	b.set = contendedSet()
	m, err := rtm.New(b.set)
	if err != nil {
		return err
	}
	b.mgr = m
	for i, t := range b.set.Templates {
		b.workers = append(b.workers, &mgrWorker{tmpl: t, id: uint32(i),
			rng: rand.New(rand.NewSource(seed*64 + int64(i)))})
	}
	return nil
}

func (b *mgrBench) segment(trace bool) (segStats, error) {
	per := mgrSegTxns / b.scale / len(b.workers)
	stats := make([]segStats, len(b.workers))
	errs := make([]error, len(b.workers))
	var wg sync.WaitGroup
	for i, w := range b.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var tr *tracer
			if trace {
				if w.tr == nil {
					w.tr = newTracer(time.Now(), 1<<16)
				}
				tr = w.tr
			}
			stats[i], errs[i] = w.run(b.mgr, per, tr)
		}()
	}
	wg.Wait()
	var tot segStats
	b.lat = b.lat[:0]
	for i := range stats {
		tot.add(stats[i])
		b.lat = append(b.lat, stats[i].lat...)
	}
	tot.lat = b.lat
	return tot, errors.Join(errs...)
}

// run commits n transactions of the worker's template, retrying a
// sacrificed one (ErrAborted) until it commits. One transaction in
// mgrSampling is timed (and, in the traced run, spanned); ontime counts
// the sampled transactions only, so the runner scales it by the sampling.
func (w *mgrWorker) run(m *rtm.Manager, n int, tr *tracer) (segStats, error) {
	ctx := context.Background()
	st := segStats{attempted: int64(n)}
	w.lat = w.lat[:0]
	for i := 0; i < n; i++ {
		sampled := i%mgrSampling == 0
		var start time.Time
		var str *tracer
		var id uint32
		root := int32(-1)
		if sampled {
			start = time.Now()
			str = tr
			w.seq++
			id = w.id<<28 | w.seq
			root = str.begin(spTxn, id, -1)
		}
		for {
			err := mgrTxn(ctx, m, w.tmpl, w.rng, str, id, root)
			if err == nil {
				break
			}
			if !errors.Is(err, rtm.ErrAborted) {
				return st, err
			}
			st.retries++
		}
		st.committed++
		if sampled {
			d := time.Since(start)
			str.end(root)
			w.lat = append(w.lat, int64(d))
			if d <= mgrBudget {
				st.ontime += mgrSampling
			}
		}
	}
	st.ontime = min(st.ontime, st.committed)
	st.lat = w.lat
	return st, nil
}

// mgrTxn runs one transaction over tmpl's declared steps: Begin, each
// read and write, Commit, with a span around every call when tr is set.
// Every error exit of the manager is self-cleaning, so a failed
// transaction needs no Abort.
func mgrTxn(ctx context.Context, m *rtm.Manager, tmpl *txn.Template, rng *rand.Rand, tr *tracer, id uint32, root int32) error {
	sp := tr.begin(spBegin, id, root)
	tx, err := m.Begin(ctx, tmpl.Name)
	tr.end(sp)
	if err != nil {
		return err
	}
	for _, step := range tmpl.Steps {
		switch step.Kind {
		case txn.ReadStep:
			sp = tr.begin(spRead, id, root)
			_, err = tx.Read(ctx, step.Item)
			tr.end(sp)
		case txn.WriteStep:
			sp = tr.begin(spWrite, id, root)
			err = tx.Write(ctx, step.Item, db.Value(rng.Int63n(1<<30)))
			tr.end(sp)
		}
		if err != nil {
			return err
		}
	}
	sp = tr.begin(spCommit, id, root)
	err = tx.Commit(ctx)
	tr.end(sp)
	return err
}

func (b *mgrBench) slices() int { return 1 }

func (b *mgrBench) window() { b.mgr.ResetHistory() }

func (b *mgrBench) counters() counters { return counters{mgr: b.mgr.Stats()} }

func (b *mgrBench) tracers() []*tracer {
	var out []*tracer
	for _, w := range b.workers {
		if w.tr != nil {
			out = append(out, w.tr)
		}
	}
	return out
}

// verify checks the workers' commit count against the manager's and
// audits the final history window.
func (b *mgrBench) verify(before, after counters, tot segStats, lm layerMetrics) error {
	if got := int64(after.mgr.Commits - before.mgr.Commits); got != tot.committed {
		return fmt.Errorf("workers saw %d commits, manager counted %d", tot.committed, got)
	}
	if live := after.mgr.Live; live != 0 {
		return fmt.Errorf("%d transactions still live after the last segment", live)
	}
	return auditWindow(b.mgr, lm)
}

func (b *mgrBench) close() {}
