package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"time"

	"pcpda/internal/client"
	"pcpda/internal/rtm"
	"pcpda/internal/server"
	"pcpda/internal/txn"
	"pcpda/internal/wire"
	"pcpda/internal/workload"
)

// svcMode selects which of the two service workloads a svc fixture runs.
type svcMode int

const (
	svcSaturate svcMode = iota // svc-sat-update
	svcCycle                   // svc-lat-cycle
)

// The service workloads' fixed shape. Segment sizes are fixed work, never
// fixed time, so a slow build does less per second rather than less per
// segment.
const (
	satConns     = 2      // pipelined connections (at most nproc)
	satDepth     = 8      // whole-transaction bursts in flight per connection
	satSegTxns   = 15_000 // transactions per segment, split evenly over the connections
	satBudget    = 2 * time.Millisecond
	cycleSegLen  = 3_000 // cycles per segment; a cycle is two transactions
	svcSlices    = 10    // segments per audit window: 150 000 transactions, or 30 000 cycles
	cycleBudget  = 500 * time.Microsecond
	cycleReadSet = 2 // items a sense (read-only) transaction reads
	maxResubmits = 3 // resubmissions of a typed retryable refusal before the operation counts as failed
	roProbeTxns  = 1000
)

// defaultSet generates the transaction set a default pcpdad serves: 8
// templates over 12 items at utilization 0.5, write probability 0.5 and
// generator seed 1. The run's --seed drives the request stream (template
// picks, written values, read sets), not the schema: a different schema
// per seed is a different workload (2-4 operations per template), and its
// cost would differ by more than any bound here.
func defaultSet() (*txn.Set, error) {
	return workload.Generate(workload.Config{
		N: 8, Items: 12, Utilization: 0.5,
		PeriodMin: 40, PeriodMax: 400,
		OpsMin: 2, OpsMax: 4, WriteProb: 0.5, Seed: 1,
	})
}

// svc is a live server on 127.0.0.1:0 with server, client and manager at
// their default configuration, driven by the benchmark's own load loop
// over the public client calls.
type svc struct {
	mode  svcMode
	scale int
	seed  int64

	set    *txn.Set
	mgr    *rtm.Manager
	srv    *server.Server
	served chan error // Serve's return value
	conns  []*svcConn
	lat    []int64
	closed bool
}

func newSvc(mode svcMode, scale int) *svc { return &svc{mode: mode, scale: scale} }

func (s *svc) setup(seed int64) error {
	s.seed = seed
	set, err := defaultSet()
	if err != nil {
		return err
	}
	s.set = set
	if s.mgr, err = rtm.New(set); err != nil {
		return err
	}
	if s.srv, err = server.New(server.Config{Manager: s.mgr}); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve(ln) }() // ends when Drain closes ln; close waits for it
	nconns := 1
	if s.mode == svcSaturate {
		nconns = min(satConns, runtime.NumCPU())
	}
	for i := 0; i < nconns; i++ {
		pc, err := client.DialPipelined(ln.Addr().String(), 0, 0)
		if err != nil {
			return err
		}
		s.conns = append(s.conns, newSvcConn(pc, i, seed))
	}
	return nil
}

func (s *svc) segment(trace bool) (segStats, error) {
	if s.mode == svcCycle {
		c := s.conns[0]
		st, err := c.cycles(cycleSegLen/s.scale, c.tracerFor(trace))
		return st, err
	}
	per := satSegTxns / s.scale / len(s.conns)
	stats := make([]segStats, len(s.conns))
	errs := make([]error, len(s.conns))
	var wg sync.WaitGroup
	for i, c := range s.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stats[i], errs[i] = c.saturate(per, c.tracerFor(trace))
		}()
	}
	wg.Wait()
	var tot segStats
	s.lat = s.lat[:0]
	for i := range stats {
		tot.add(stats[i])
		s.lat = append(s.lat, stats[i].lat...)
	}
	tot.lat = s.lat
	return tot, errors.Join(errs...)
}

func (s *svc) slices() int { return svcSlices }

func (s *svc) window() { s.mgr.ResetHistory() }

func (s *svc) counters() counters {
	return counters{mgr: s.mgr.Stats(), srv: s.srv.Counters().Snapshot()}
}

func (s *svc) tracers() []*tracer {
	var out []*tracer
	for _, c := range s.conns {
		if c.tr != nil {
			out = append(out, c.tr)
		}
	}
	return out
}

// verify checks that the client's view and the program's counters agree,
// that the read-only path stayed off the lock table, that the final
// history window audits clean, and that the server drains clean.
func (s *svc) verify(before, after counters, tot segStats, lm layerMetrics) error {
	mgrCommits := int64(after.mgr.Commits-before.mgr.Commits) + after.mgr.ROCommits - before.mgr.ROCommits
	accepted := after.srv.Accepted - before.srv.Accepted + after.srv.ROAccepted - before.srv.ROAccepted
	if tot.committed != mgrCommits {
		return fmt.Errorf("client saw %d commits, manager counted %d", tot.committed, mgrCommits)
	}
	// An accepted BEGIN either commits or is one of the counted refusals.
	if accepted < tot.committed || accepted > tot.committed+tot.retries+tot.failed {
		return fmt.Errorf("client saw %d commits (%d retries, %d failed), server accepted %d",
			tot.committed, tot.retries, tot.failed, accepted)
	}

	// Pure read-only probe: the snapshot path must not touch the lock
	// table or the manager clock.
	c := s.conns[0]
	p0 := s.mgr.Stats()
	for i := 0; i < roProbeTxns; i++ {
		if err := c.pc.RunReadTxn(c.pickReadSet()); err != nil {
			return fmt.Errorf("read-only probe: %w", err)
		}
	}
	p1 := s.mgr.Stats()
	if p1.LockTableOps != p0.LockTableOps || p1.Clock != p0.Clock || p1.ROCommits-p0.ROCommits != roProbeTxns {
		return fmt.Errorf("read-only probe: lock table ops +%d, clock +%d, ro commits +%d (want 0, 0, %d)",
			p1.LockTableOps-p0.LockTableOps, p1.Clock-p0.Clock, p1.ROCommits-p0.ROCommits, roProbeTxns)
	}

	// Final history window: the updates of the last segment.
	if err := auditWindow(s.mgr, lm); err != nil {
		return err
	}
	s.mgr.ResetHistory() // Drain audits again; the window above already did, so give it an empty one

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	t0 := time.Now()
	err := s.srv.Drain(ctx)
	lm.set("server.drain_ms", float64(time.Since(t0).Microseconds())/1e3)
	s.finish()
	if err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	snap := s.srv.Counters().Snapshot()
	lm.set("server.inflight_hwm", float64(snap.InflightHWM))
	if snap.WatchdogAuditFails != 0 || snap.SlowClientKills != 0 || snap.WatchdogTrips != 0 {
		return fmt.Errorf("server tripped: %d watchdog trips, %d audit fails, %d slow-client kills",
			snap.WatchdogTrips, snap.WatchdogAuditFails, snap.SlowClientKills)
	}
	return nil
}

// finish closes the client connections and waits for Serve to return;
// the server has been drained (or is being closed) by the caller.
func (s *svc) finish() {
	for _, c := range s.conns {
		_ = c.pc.Close() // the sessions are already gone
	}
	if s.served != nil {
		<-s.served
	}
	s.closed = true
}

func (s *svc) close() {
	if s.closed || s.srv == nil {
		return
	}
	_ = s.srv.Close() // set-up being discarded or an error path: the audit verdict is not needed
	s.finish()
}

// burst is one template's reusable whole-transaction burst. SubmitTxn
// encodes the frames before it returns, so the messages can be refilled
// for the next transaction of the same template.
type burst struct {
	name   string
	steps  []wire.Message
	writes []*wire.Write
}

// svcConn is one pipelined connection and the request stream it carries;
// it is driven by exactly one goroutine at a time.
type svcConn struct {
	pc     *client.PipeConn
	id     uint32
	rng    *rand.Rand
	bursts []burst
	items  []uint32 // the schema's item space, for read sets
	reads  []uint32 // the current read set (reused)
	lat    []int64
	tr     *tracer
	seq    uint32
}

func newSvcConn(pc *client.PipeConn, id int, seed int64) *svcConn {
	c := &svcConn{pc: pc, id: uint32(id), rng: rand.New(rand.NewSource(seed*64 + int64(id))),
		reads: make([]uint32, cycleReadSet)}
	seen := map[uint32]bool{}
	for _, t := range pc.Schema().Templates {
		b := burst{name: t.Name}
		for _, st := range t.Steps {
			switch st.Op {
			case wire.OpRead:
				b.steps = append(b.steps, &wire.Read{Item: st.Item})
			case wire.OpWrite:
				w := &wire.Write{Item: st.Item}
				b.steps = append(b.steps, w)
				b.writes = append(b.writes, w)
			default:
				continue
			}
			if !seen[st.Item] {
				seen[st.Item] = true
				c.items = append(c.items, st.Item)
			}
		}
		c.bursts = append(c.bursts, b)
	}
	return c
}

// tracerFor returns the connection's tracer when the segment is traced.
func (c *svcConn) tracerFor(trace bool) *tracer {
	if !trace {
		return nil
	}
	if c.tr == nil {
		c.tr = newTracer(time.Now(), 1<<20)
	}
	return c.tr
}

// nextTxn draws the next update transaction: a template uniformly from
// the set, fresh values for its writes.
func (c *svcConn) nextTxn() int {
	return c.rng.Intn(len(c.bursts))
}

func (c *svcConn) fill(tmpl int) *burst {
	b := &c.bursts[tmpl]
	for _, w := range b.writes {
		w.Value = c.rng.Int63n(1 << 30)
	}
	return b
}

func (c *svcConn) pickReadSet() []uint32 {
	for i := range c.reads {
		c.reads[i] = c.items[c.rng.Intn(len(c.items))]
	}
	return c.reads
}

func (c *svcConn) txnID() uint32 {
	c.seq++
	return c.id<<28 | c.seq&(1<<28-1)
}

// retryable reports whether err is a typed refusal the client may
// resubmit; anything else (transport, desync, protocol) ends the run.
func retryable(err error) bool {
	var re *wire.RemoteError
	return errors.As(err, &re) && re.Code.Retryable()
}

// flight is one transaction in flight on a saturating connection.
type flight struct {
	tmpl  int
	tries int
	start time.Time
	fut   *client.TxnFuture
	id    uint32 // shared by the transaction's spans
	root  int32
}

// saturate runs n update transactions closed-loop with satDepth whole
// bursts in flight: submit until the window is full, then settle the
// oldest. Latency is first submit to final outcome.
func (c *svcConn) saturate(n int, tr *tracer) (segStats, error) {
	st := segStats{attempted: int64(n)}
	c.lat = c.lat[:0]
	queue := make([]flight, 0, satDepth)
	submit := func(f flight) error {
		b := c.fill(f.tmpl)
		sp := tr.begin(spSubmit, f.id, f.root)
		fut, err := c.pc.SubmitTxn(b.name, 0, b.steps)
		tr.end(sp)
		if err != nil {
			return err
		}
		f.fut = fut
		queue = append(queue, f)
		return nil
	}
	for submitted := 0; submitted < n || len(queue) > 0; {
		for submitted < n && len(queue) < satDepth {
			f := flight{tmpl: c.nextTxn(), start: time.Now(), id: c.txnID()}
			f.root = tr.begin(spTxn, f.id, -1)
			if err := submit(f); err != nil {
				return st, err
			}
			submitted++
		}
		f := queue[0]
		queue = queue[:copy(queue, queue[1:])]
		sp := tr.begin(spAwait, f.id, f.root)
		err := f.fut.Wait()
		tr.end(sp)
		switch {
		case err == nil:
			d := time.Since(f.start)
			tr.end(f.root)
			st.committed++
			if d <= satBudget {
				st.ontime++
			}
			c.lat = append(c.lat, int64(d))
		case !retryable(err):
			return st, err
		case f.tries < maxResubmits:
			f.tries++
			st.retries++
			if err := submit(f); err != nil {
				return st, err
			}
		default:
			tr.end(f.root)
			st.failed++
		}
	}
	st.lat = c.lat
	return st, nil
}

// cycles runs n strictly sequential sense→actuate cycles: one declared
// read-only snapshot transaction, then one update transaction, one
// transaction in flight at any time. Latency is per cycle; transactions
// count two per cycle.
func (c *svcConn) cycles(n int, tr *tracer) (segStats, error) {
	st := segStats{attempted: 2 * int64(n)}
	c.lat = c.lat[:0]
	// attempt runs op until it commits or the resubmission bound is hit.
	attempt := func(kind spanKind, id uint32, root int32, op func() error) (bool, error) {
		for tries := 0; ; tries++ {
			sp := tr.begin(kind, id, root)
			err := op()
			tr.end(sp)
			switch {
			case err == nil:
				return true, nil
			case !retryable(err):
				return false, err
			case tries == maxResubmits:
				return false, nil
			}
			st.retries++
		}
	}
	for i := 0; i < n; i++ {
		start := time.Now()
		id := c.txnID()
		root := tr.begin(spCycle, id, -1)
		reads := c.pickReadSet()
		okRO, err := attempt(spRO, id, root, func() error { return c.pc.RunReadTxn(reads) })
		if err != nil {
			return st, err
		}
		b := c.fill(c.nextTxn())
		okUpd, err := attempt(spUpd, id, root, func() error { return c.pc.RunTxn(b.name, 0, b.steps) })
		if err != nil {
			return st, err
		}
		d := time.Since(start)
		tr.end(root)
		var ok int64
		if okRO {
			ok++
		}
		if okUpd {
			ok++
		}
		st.committed += ok
		st.failed += 2 - ok
		if ok == 2 && d <= cycleBudget {
			st.ontime += 2
		}
		c.lat = append(c.lat, int64(d))
	}
	st.lat = c.lat
	return st, nil
}
