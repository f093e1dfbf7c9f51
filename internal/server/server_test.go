package server

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"pcpda/internal/client"
	"pcpda/internal/fault"
	"pcpda/internal/metrics"
	"pcpda/internal/rtm"
	"pcpda/internal/txn"
	"pcpda/internal/wire"
)

// testSet: the Example-3 shape plus a third independent template.
func testSet(t *testing.T) *txn.Set {
	t.Helper()
	s := txn.NewSet("server-test")
	x := s.Catalog.Intern("x")
	y := s.Catalog.Intern("y")
	z := s.Catalog.Intern("z")
	s.Add(&txn.Template{Name: "reader", Steps: []txn.Step{txn.Read(x), txn.Read(y)}})
	s.Add(&txn.Template{Name: "updater", Steps: []txn.Step{txn.Write(x), txn.Write(y)}})
	s.Add(&txn.Template{Name: "zonly", Steps: []txn.Step{txn.Write(z)}})
	s.AssignByIndex()
	return s
}

// startServer spins up a server over loopback and returns its address.
// The cleanup closes it and fails the test if the drain audit fails —
// every test therefore ends with a leak check for free.
func startServer(t testing.TB, mgr *rtm.Manager, cfg Config) (string, *Server) {
	t.Helper()
	cfg.Manager = mgr
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
		if err := <-serveDone; !errors.Is(err, net.ErrClosed) {
			t.Errorf("serve exit: %v", err)
		}
	})
	return ln.Addr().String(), srv
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func mustDial(t *testing.T, addr string) *client.PipeConn {
	t.Helper()
	c, err := client.DialPipelined(addr, 5*time.Second, 0)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func item(t *testing.T, set *txn.Set, name string) uint32 {
	t.Helper()
	it, ok := set.Catalog.Lookup(name)
	if !ok {
		t.Fatalf("item %s not in catalog", name)
	}
	return uint32(it)
}

func TestSessionLifecycle(t *testing.T) {
	set := testSet(t)
	mgr, err := rtm.New(set)
	if err != nil {
		t.Fatal(err)
	}
	addr, srv := startServer(t, mgr, Config{})
	c := mustDial(t, addr)
	defer func() { _ = c.Close() }()

	schema := c.Schema()
	if schema.Set != "server-test" || len(schema.Templates) != 3 {
		t.Fatalf("schema: %+v", schema)
	}
	if schema.Templates[1].Name != "updater" || schema.Templates[1].Steps[0].Op != wire.OpWrite {
		t.Fatalf("updater schema: %+v", schema.Templates[1])
	}
	if err := c.Ping(77); err != nil {
		t.Fatal(err)
	}

	x := item(t, set, "x")
	if _, err := c.Begin("updater"); err != nil {
		t.Fatal(err)
	}
	if err := c.Write(x, 42); err != nil {
		t.Fatal(err)
	}
	if v, err := c.Read(x); err != nil || v != 42 {
		t.Fatalf("read own write: %v, %v", v, err)
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	if v := mgr.ReadCommitted(0); v == 0 {
		// x interned first → item 0; the write must have landed.
		t.Fatalf("committed x = %v", v)
	}

	// State errors: operations outside a transaction.
	if err := c.Commit(); !wire.IsCode(err, wire.CodeState) {
		t.Fatalf("commit outside txn: %v", err)
	}
	if _, err := c.Begin("nope"); !wire.IsCode(err, wire.CodeProtocol) {
		t.Fatalf("unknown template: %v", err)
	}
	// Undeclared access ends the transaction with CodeProtocol.
	if _, err := c.Begin("reader"); err != nil {
		t.Fatal(err)
	}
	if err := c.Write(x, 1); !wire.IsCode(err, wire.CodeProtocol) {
		t.Fatalf("undeclared write: %v", err)
	}
	if err := c.Abort(); !wire.IsCode(err, wire.CodeState) {
		t.Fatalf("abort after error reply should find no txn: %v", err)
	}
	if got := srv.Counters().Accepted.Load(); got != 2 {
		t.Fatalf("accepted = %d, want 2", got)
	}
	// One request in flight at a time, however many there were: a strict
	// client never counts as pipelining.
	if got := srv.Counters().PipelinedSessions.Load(); got != 0 {
		t.Fatalf("strict session counted as pipelined: %d", got)
	}
}

func TestBeginWhileLiveIsStateError(t *testing.T) {
	mgr, _ := rtm.New(testSet(t))
	addr, _ := startServer(t, mgr, Config{})
	c := mustDial(t, addr)
	defer func() { _ = c.Close() }()
	if _, err := c.Begin("updater"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Begin("reader"); !wire.IsCode(err, wire.CodeState) {
		t.Fatalf("second BEGIN: %v", err)
	}
	if err := c.Abort(); err != nil {
		t.Fatal(err)
	}
}

// TestOverloadBackpressure fills the admission gate — its one slot's
// holder parked on a busy template slot, QueueDepth=1 — and asserts a
// further BEGIN is refused with CodeOverload.
func TestOverloadBackpressure(t *testing.T) {
	mgr, _ := rtm.New(testSet(t))
	addr, srv := startServer(t, mgr, Config{QueueDepth: 1, MaxAdmitting: 1})

	holder := mustDial(t, addr)
	defer func() { _ = holder.Close() }()
	if _, err := holder.Begin("zonly"); err != nil {
		t.Fatal(err)
	}
	// This BEGIN parks inside the manager's Begin on zonly's slot, pinning
	// the one admission slot.
	parked := mustDial(t, addr)
	defer func() { _ = parked.Close() }()
	parkedErr := make(chan error, 1)
	go func() {
		_, err := parked.Begin("zonly")
		parkedErr <- err
	}()
	waitFor(t, "the admission to park", func() bool { return mgr.ParkedWaiters() > 0 })

	// Fill the queue, then overflow it: the first stranger queues, the
	// second finds the queue full.
	var strangers []*client.PipeConn
	var sawOverload bool
	for i := 0; i < 10 && !sawOverload; i++ {
		c := mustDial(t, addr)
		strangers = append(strangers, c)
		errCh := make(chan error, 1)
		go func() { _, err := c.Begin("zonly"); errCh <- err }()
		select {
		case err := <-errCh:
			sawOverload = wire.IsCode(err, wire.CodeOverload)
			if err == nil {
				t.Fatal("BEGIN succeeded while the slot was held")
			}
			if !sawOverload {
				t.Fatalf("unexpected BEGIN error: %v", err)
			}
		case <-time.After(200 * time.Millisecond):
			// Landed in the queue; leave it parked and keep pushing.
		}
	}
	if !sawOverload {
		t.Fatal("no BEGIN was rejected with CodeOverload")
	}
	if srv.Counters().RejectedOverload.Load() == 0 {
		t.Fatal("overload counter not bumped")
	}

	// Release the slot: the parked admission completes.
	if err := holder.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := <-parkedErr; err != nil {
		t.Fatalf("parked BEGIN after release: %v", err)
	}
	if err := parked.Abort(); err != nil {
		t.Fatal(err)
	}
	// Cut the queued strangers loose. Each either gets admitted (and is
	// auto-aborted on disconnect) or leaves the queue; either way the
	// gate must fully unwind for the drain audit.
	for _, c := range strangers {
		_ = c.Close()
	}
	waitFor(t, "admission pipeline to empty", func() bool { return srv.pending.Load() == 0 })
	waitFor(t, "manager quiescent", func() bool { return mgr.Stats().Live == 0 })
}

// --- disconnect-mid-transaction matrix (satellite 3) -------------------------

// Disconnect right after BEGIN: the idle live transaction is auto-aborted.
func TestDisconnectAfterBegin(t *testing.T) {
	mgr, _ := rtm.New(testSet(t))
	addr, srv := startServer(t, mgr, Config{})
	c := mustDial(t, addr)
	if _, err := c.Begin("updater"); err != nil {
		t.Fatal(err)
	}
	_ = c.Close()
	waitFor(t, "auto-abort", func() bool { return srv.Counters().AutoAborted.Load() == 1 })
	waitFor(t, "manager quiescent", func() bool { return mgr.Stats().Live == 0 })
	if err := mgr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Disconnect while holding a write lock: the lock must be released so a
// later transaction can take it.
func TestDisconnectHoldingWriteLock(t *testing.T) {
	set := testSet(t)
	mgr, _ := rtm.New(set)
	addr, srv := startServer(t, mgr, Config{})
	x := item(t, set, "x")

	c := mustDial(t, addr)
	if _, err := c.Begin("updater"); err != nil {
		t.Fatal(err)
	}
	if err := c.Write(x, 7); err != nil {
		t.Fatal(err)
	}
	_ = c.Close()
	waitFor(t, "auto-abort", func() bool { return srv.Counters().AutoAborted.Load() == 1 })
	waitFor(t, "manager quiescent", func() bool { return mgr.Stats().Live == 0 })

	// The uncommitted write must be gone and the lock free.
	c2 := mustDial(t, addr)
	defer func() { _ = c2.Close() }()
	if _, err := c2.Begin("updater"); err != nil {
		t.Fatal(err)
	}
	if err := c2.Write(x, 8); err != nil {
		t.Fatalf("write after lock-holder disconnect: %v", err)
	}
	if err := c2.Commit(); err != nil {
		t.Fatal(err)
	}
	if v := mgr.ReadCommitted(0); v != 8 {
		t.Fatalf("committed x = %v, want 8 (aborted 7 must not survive)", v)
	}
}

// Disconnect between READ and COMMIT: the read lock is released and the
// history stays clean for a subsequent writer.
func TestDisconnectBetweenReadAndCommit(t *testing.T) {
	set := testSet(t)
	mgr, _ := rtm.New(set)
	addr, srv := startServer(t, mgr, Config{})
	x := item(t, set, "x")

	c := mustDial(t, addr)
	if _, err := c.Begin("reader"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read(x); err != nil {
		t.Fatal(err)
	}
	_ = c.Close()
	waitFor(t, "auto-abort", func() bool { return srv.Counters().AutoAborted.Load() == 1 })
	waitFor(t, "manager quiescent", func() bool { return mgr.Stats().Live == 0 })

	c2 := mustDial(t, addr)
	defer func() { _ = c2.Close() }()
	if _, err := c2.Begin("updater"); err != nil {
		t.Fatal(err)
	}
	if err := c2.Write(x, 9); err != nil {
		t.Fatalf("write after reader disconnect: %v", err)
	}
	if err := c2.Commit(); err != nil {
		t.Fatal(err)
	}
}

// Disconnect while parked inside the manager (commit waiting out a stale
// reader): the park must unwind via the session context and auto-abort.
func TestDisconnectWhileParkedInCommit(t *testing.T) {
	set := testSet(t)
	mgr, _ := rtm.New(set)
	addr, srv := startServer(t, mgr, Config{})
	x := item(t, set, "x")
	y := item(t, set, "y")

	up := mustDial(t, addr)
	if _, err := up.Begin("updater"); err != nil {
		t.Fatal(err)
	}
	if err := up.Write(x, 5); err != nil {
		t.Fatal(err)
	}
	rd := mustDial(t, addr)
	defer func() { _ = rd.Close() }()
	if _, err := rd.Begin("reader"); err != nil {
		t.Fatal(err)
	}
	// Dynamic adjustment: the reader reads through the write lock and
	// becomes a stale reader the updater's commit must wait out.
	if _, err := rd.Read(x); err != nil {
		t.Fatal(err)
	}
	commitErr := make(chan error, 1)
	go func() { commitErr <- up.Commit() }()
	waitFor(t, "commit to park", func() bool { return mgr.ParkedWaiters() > 0 })

	_ = up.Close() // kill the parked committer
	waitFor(t, "auto-abort", func() bool { return srv.Counters().AutoAborted.Load() == 1 })
	<-commitErr // client side: read fails on closed conn; value irrelevant

	// The reader is unaffected and commits.
	if _, err := rd.Read(y); err != nil {
		t.Fatal(err)
	}
	if err := rd.Commit(); err != nil {
		t.Fatalf("reader commit after committer death: %v", err)
	}
	waitFor(t, "manager quiescent", func() bool { return mgr.Stats().Live == 0 })
	if v := mgr.ReadCommitted(0); v != 0 {
		t.Fatalf("aborted commit leaked: x = %v", v)
	}
}

// Disconnect while a BEGIN is parked inside the manager's Begin, its
// admission slot held: the park unwinds under the session context, the slot
// comes back, and no transaction is ever begun for the dead session.
func TestDisconnectWhileBeginParked(t *testing.T) {
	mgr, _ := rtm.New(testSet(t))
	addr, srv := startServer(t, mgr, Config{})

	holder := mustDial(t, addr)
	defer func() { _ = holder.Close() }()
	if _, err := holder.Begin("zonly"); err != nil {
		t.Fatal(err)
	}
	waiter := mustDial(t, addr)
	beginErr := make(chan error, 1)
	go func() { _, err := waiter.Begin("zonly"); beginErr <- err }()
	waitFor(t, "begin to park", func() bool { return mgr.ParkedWaiters() > 0 })

	_ = waiter.Close()
	<-beginErr
	waitFor(t, "abandoned admission resolved", func() bool { return srv.pending.Load() == 0 })

	if st := mgr.Stats(); st.Begins != 1 || mgr.ParkedWaiters() != 0 || slotsHeld(srv) != 0 {
		t.Fatalf("begins = %d, parked = %d, admission slots held = %d; want the holder's begin only and nothing left behind",
			st.Begins, mgr.ParkedWaiters(), slotsHeld(srv))
	}
	if err := holder.Abort(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "manager quiescent", func() bool { return mgr.Stats().Live == 0 })
	if err := mgr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// --- drain -------------------------------------------------------------------

func TestDrainGraceful(t *testing.T) {
	mgr, _ := rtm.New(testSet(t))
	cfg := Config{Manager: mgr}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	c := mustDial(t, ln.Addr().String())
	defer func() { _ = c.Close() }()
	if _, err := c.Begin("updater"); err != nil {
		t.Fatal(err)
	}

	drainDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drainDone <- srv.Drain(ctx)
	}()
	waitFor(t, "draining flag", func() bool { return srv.draining.Load() })

	// In-flight work finishes; new work is refused.
	if _, err := c.Begin("reader"); !wire.IsCode(err, wire.CodeState) {
		// Still in a txn: state error comes first. Commit, then check
		// the draining refusal.
		t.Fatalf("begin inside txn during drain: %v", err)
	}
	if err := c.Commit(); err != nil {
		t.Fatalf("commit during drain: %v", err)
	}
	if _, err := c.Begin("reader"); !wire.IsCode(err, wire.CodeDraining) {
		t.Fatalf("begin during drain: %v", err)
	}
	if err := <-drainDone; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := <-serveDone; !errors.Is(err, net.ErrClosed) {
		t.Fatalf("serve exit: %v", err)
	}
	if got := srv.Counters().DrainAborted.Load(); got != 0 {
		t.Fatalf("graceful drain aborted %d transactions", got)
	}
}

func TestDrainForcedAbortsStragglers(t *testing.T) {
	mgr, _ := rtm.New(testSet(t))
	srv, err := New(Config{Manager: mgr})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	c := mustDial(t, ln.Addr().String())
	defer func() { _ = c.Close() }()
	if _, err := c.Begin("updater"); err != nil {
		t.Fatal(err)
	}
	// Never commits: drain's grace expires and the straggler is aborted.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("forced drain must still leave the manager clean: %v", err)
	}
	if err := <-serveDone; !errors.Is(err, net.ErrClosed) {
		t.Fatalf("serve exit: %v", err)
	}
	if got := srv.Counters().DrainAborted.Load(); got != 1 {
		t.Fatalf("DrainAborted = %d, want 1", got)
	}
	if err := mgr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCountersBytes sanity-checks the byte accounting: both directions
// nonzero and plausibly sized after a handful of round trips.
func TestCountersBytes(t *testing.T) {
	mgr, _ := rtm.New(testSet(t))
	ctr := &metrics.ServerCounters{}
	addr, _ := startServer(t, mgr, Config{Counters: ctr})
	c := mustDial(t, addr)
	defer func() { _ = c.Close() }()
	for i := 0; i < 5; i++ {
		if err := c.Ping(uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	snap := ctr.Snapshot()
	if snap.BytesIn == 0 || snap.BytesOut == 0 {
		t.Fatalf("byte counters: %+v", snap)
	}
	if snap.SessionsOpened != 1 {
		t.Fatalf("sessions opened = %d", snap.SessionsOpened)
	}
	if live := ctr.SessionsLive(); live != 1 {
		t.Fatalf("sessions live = %d", live)
	}
}

// TestSoak is the acceptance scenario: 64 connections, ≥10k committed
// transactions, fault injection on, graceful drain, zero leaks.
func TestSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short")
	}
	set := testSet(t)
	inj := fault.NewSeeded(fault.Config{Seed: 42, PDelay: 0.01, PWakeup: 0.01, PAbort: 0.002})
	mgr, err := rtm.NewWithOptions(set, rtm.Options{Injector: inj})
	if err != nil {
		t.Fatal(err)
	}
	addr, srv := startServer(t, mgr, Config{QueueDepth: 128})

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	rep, err := client.RunLoad(ctx, client.LoadConfig{
		Addr: addr, Conns: 64, Txns: 10000, Seed: 7,
	})
	if err != nil {
		t.Fatalf("load: %v (report %+v)", err, rep)
	}
	if rep.Committed < 10000 {
		t.Fatalf("committed %d transactions, want >= 10000", rep.Committed)
	}
	t.Logf("soak: %d committed in %v (%.0f txn/s), retries=%d p50=%v p99=%v",
		rep.Committed, rep.Elapsed, rep.Throughput(), rep.Retries, rep.P50, rep.P99)

	waitFor(t, "sessions idle", func() bool { return !srv.liveWork() })
	if err := mgr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := mgr.Stats()
	if st.Live != 0 {
		t.Fatalf("%d transactions leaked", st.Live)
	}
	if int64(st.Commits) < rep.Committed {
		t.Fatalf("manager commits %d < client commits %d", st.Commits, rep.Committed)
	}
	snap := srv.Counters().Snapshot()
	if snap.Accepted < rep.Committed {
		t.Fatalf("accepted %d < committed %d", snap.Accepted, rep.Committed)
	}
	// Drain runs in the startServer cleanup and must come back clean.
}
