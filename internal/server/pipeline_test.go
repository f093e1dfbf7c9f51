package server

import (
	"context"
	"testing"
	"time"

	"pcpda/internal/client"
	"pcpda/internal/fault"
	"pcpda/internal/nemesis"
	"pcpda/internal/rtm"
	"pcpda/internal/wire"
)

// TestPipelinedTxnBurst: whole transactions, one frame each — the steady
// state of the pipelined protocol — including the outcome contract: a
// refusal or a failed operation is the transaction's one reply, nothing is
// committed, and the session survives to run the next one.
func TestPipelinedTxnBurst(t *testing.T) {
	set := testSet(t)
	mgr, _ := rtm.New(set)
	addr, srv := startServer(t, mgr, Config{})
	p := mustDial(t, addr)
	defer func() { _ = p.Close() }()
	x, y := item(t, set, "x"), item(t, set, "y")

	err := p.RunTxn("updater", 0, []wire.Message{
		&wire.Write{Item: x, Value: 41}, &wire.Write{Item: y, Value: 43},
	})
	if err != nil {
		t.Fatalf("pipelined updater: %v", err)
	}
	if v := mgr.ReadCommitted(0); v != 41 {
		t.Fatalf("committed x = %v, want 41", v)
	}
	// One request at a time is not pipelining, whatever the client is.
	if got := srv.Counters().PipelinedSessions.Load(); got != 0 {
		t.Fatalf("PipelinedSessions = %d before any request overlapped another", got)
	}

	// Admission refuses it: that is the outcome.
	err = p.RunTxn("nope", 0, []wire.Message{&wire.Write{Item: x, Value: 1}})
	if !wire.IsCode(err, wire.CodeProtocol) {
		t.Fatalf("transaction of an unknown template: %v, want CodeProtocol", err)
	}

	// An operation fails (undeclared write under "reader"): that operation
	// decides the outcome and the transaction is gone.
	err = p.RunTxn("reader", 0, []wire.Message{
		&wire.Read{Item: x}, &wire.Write{Item: x, Value: 9},
	})
	if !wire.IsCode(err, wire.CodeProtocol) {
		t.Fatalf("transaction with an undeclared write: %v, want CodeProtocol", err)
	}

	// The session survived both, and runs two more back to back: they share
	// a write, which is what the server counts as pipelining.
	f1, err := p.SubmitTxn("reader", 0, []wire.Message{&wire.Read{Item: x}, &wire.Read{Item: y}})
	if err != nil {
		t.Fatal(err)
	}
	f2, err := p.SubmitTxn("updater", 0, []wire.Message{&wire.Write{Item: y, Value: 44}})
	if err != nil {
		t.Fatal(err)
	}
	if err1, err2 := f1.Wait(), f2.Wait(); err1 != nil || err2 != nil {
		t.Fatalf("transactions after failed ones: %v, %v", err1, err2)
	}
	if got := f1.Reads(); len(got) != 2 || got[0] != 41 || got[1] != 43 {
		t.Fatalf("reader read %v, want [41 43]: it ran ahead of the updater behind it", got)
	}
	if got := srv.Counters().PipelinedSessions.Load(); got != 1 {
		t.Fatalf("PipelinedSessions = %d, want 1", got)
	}
	if mgr.ReadCommitted(0) != 41 || mgr.ReadCommitted(1) != 44 {
		t.Fatal("failed transactions must not have committed anything")
	}
	if st := mgr.Stats(); st.Live != 0 || srv.Counters().Accepted.Load() != 4 {
		t.Fatalf("live = %d, accepted = %d; want 0 and 4 (the unknown template was never admitted)", st.Live, srv.Counters().Accepted.Load())
	}
}

// TestPipelinedPingOutOfOrder: a PING is answered by the read loop
// while the exec goroutine is stuck — a pipelined BEGIN parked in
// admission must not make the session unresponsive.
func TestPipelinedPingOutOfOrder(t *testing.T) {
	mgr, _ := rtm.New(testSet(t))
	addr, srv := startServer(t, mgr, Config{})

	holder := mustDial(t, addr)
	defer func() { _ = holder.Close() }()
	if _, err := holder.Begin("zonly"); err != nil {
		t.Fatal(err)
	}

	p := mustDial(t, addr)
	defer func() { _ = p.Close() }()
	begin, err := p.Submit(&wire.Begin{Name: "zonly"})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "pipelined BEGIN to park", func() bool { return mgr.ParkedWaiters() > 0 })

	// The BEGIN is parked; its reply cannot have been written. A PING must
	// still round-trip, out of order.
	if err := p.Ping(7); err != nil {
		t.Fatalf("ping behind a parked BEGIN: %v", err)
	}
	if mgr.ParkedWaiters() == 0 {
		t.Fatal("BEGIN resolved before the ping — the test raced itself")
	}

	if err := holder.Abort(); err != nil {
		t.Fatal(err)
	}
	if _, err := begin.Wait(); err != nil {
		t.Fatalf("parked BEGIN after release: %v", err)
	}
	_ = p.Close() // live txn unwinds via disconnect auto-abort
	waitFor(t, "auto-abort", func() bool { return srv.Counters().AutoAborted.Load() == 1 })
	waitFor(t, "manager quiescent", func() bool { return mgr.Stats().Live == 0 })
	// The inflight high-water mark is folded in when the reader exits; the
	// session had BEGIN and PING in flight together.
	waitFor(t, "inflight HWM", func() bool { return srv.Counters().InflightHWM.Load() >= 2 })
}

// TestPipelinedDisconnectEveryPhase tears a pipelined session down at each
// phase of a transaction's life — BEGIN parked in admission (the park
// unwinds under the session context), transaction live, a per-step burst
// and a TXN flushed but their replies unread, transaction fully done — and
// requires a quiescent, clean manager after every one.
func TestPipelinedDisconnectEveryPhase(t *testing.T) {
	set := testSet(t)
	mgr, _ := rtm.New(set)
	addr, srv := startServer(t, mgr, Config{})
	x, y := item(t, set, "x"), item(t, set, "y")
	burst := []wire.Message{&wire.Write{Item: x, Value: 1}, &wire.Write{Item: y, Value: 2}}

	phases := []struct {
		name string
		run  func(t *testing.T, p *client.PipeConn)
	}{
		{"begin-parked", func(t *testing.T, p *client.PipeConn) {
			// zonly's slot is held, so the tagged BEGIN parks in admission;
			// closing cancels the park and gives the admission slot back.
			holder := mustDial(t, addr)
			if _, err := holder.Begin("zonly"); err != nil {
				t.Fatal(err)
			}
			if _, err := p.Submit(&wire.Begin{Name: "zonly"}); err != nil {
				t.Fatal(err)
			}
			if err := p.Flush(); err != nil {
				t.Fatal(err)
			}
			waitFor(t, "BEGIN to park", func() bool { return mgr.ParkedWaiters() > 0 })
			_ = p.Close()
			if err := holder.Abort(); err != nil {
				t.Fatal(err)
			}
			_ = holder.Close()
		}},
		{"txn-live", func(t *testing.T, p *client.PipeConn) {
			f, err := p.Submit(&wire.Begin{Name: "updater"})
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Flush(); err != nil {
				t.Fatal(err)
			}
			if _, err := f.Wait(); err != nil {
				t.Fatal(err)
			}
			_ = p.Close() // live transaction: disconnect auto-abort
		}},
		{"burst-inflight", func(t *testing.T, p *client.PipeConn) {
			// Flush a whole burst and vanish without reading any reply: the
			// server may be at any point of executing it.
			if _, err := p.Submit(&wire.Begin{Name: "updater"}); err != nil {
				t.Fatal(err)
			}
			for _, m := range burst {
				if _, err := p.Submit(m); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := p.Submit(&wire.Commit{}); err != nil {
				t.Fatal(err)
			}
			// And a whole one behind it, on the same terms.
			if _, err := p.SubmitTxn("updater", 0, burst); err != nil {
				t.Fatal(err)
			}
			if err := p.Flush(); err != nil {
				t.Fatal(err)
			}
			_ = p.Close()
		}},
		{"burst-done", func(t *testing.T, p *client.PipeConn) {
			if err := p.RunTxn("updater", 0, burst); err != nil {
				t.Fatal(err)
			}
			_ = p.Close()
		}},
	}
	for _, ph := range phases {
		t.Run(ph.name, func(t *testing.T) {
			ph.run(t, mustDial(t, addr))
			waitFor(t, "admission pipeline to empty", func() bool { return srv.pending.Load() == 0 })
			waitFor(t, "manager quiescent", func() bool { return mgr.Stats().Live == 0 })
			if err := mgr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestNemesisPipelined is the pipelined arm of the nemesis determinism
// coverage: a seeded fault plan (resets and one-way partitions) against
// pipelined sessions. Severed sessions must unwind their tagged in-flight
// requests through the gate's cancellation and disconnect teardown, and the
// drain audit must stay clean.
func TestNemesisPipelined(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short")
	}
	mgr, _ := rtm.New(testSet(t))
	addr, srv := startServer(t, mgr, Config{
		QueueDepth: 128, WatchdogInterval: 10 * time.Millisecond,
		WatchdogGrace: 200 * time.Millisecond,
	})
	prox, err := nemesis.New(nemesis.Config{
		Listen: "127.0.0.1:0", Target: addr, Seed: 77,
		Faults: nemesis.Faults{
			Latency: time.Millisecond, Jitter: time.Millisecond,
			PReset: 0.25, PPartition: 0.25,
			FaultAfterMin: 1024, FaultAfterMax: 16384,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = prox.Close() })

	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	rep, err := client.RunLoad(ctx, client.LoadConfig{
		Addr: prox.Addr().String(), Conns: 32, Seed: 13, Pipelined: true,
		ArrivalRate: 1200, Duration: 3 * time.Second,
		DeadlineBudget: 250 * time.Millisecond,
		OpTimeout:      2 * time.Second, MaxAttempts: 3,
	})
	if err != nil {
		t.Fatalf("pipelined nemesis load: %v (report %+v)", err, rep)
	}
	st := prox.Stats()
	t.Logf("pipelined nemesis: offered=%d committed=%d failed=%d | proxy conns=%d resets=%d partitions=%d",
		rep.Offered, rep.Committed, rep.Failed, st.Conns, st.Resets, st.Partitions)
	if rep.Committed == 0 {
		t.Fatalf("nothing committed through the proxy: %+v", rep)
	}
	if st.Resets+st.Partitions == 0 {
		t.Fatalf("proxy injected no faults across %d conns — the soak tested nothing", st.Conns)
	}
	// The pipelined client sends a transaction whole: about one reply per
	// admitted transaction and one HELLO_OK per session, where the strict
	// client's per-step frames would draw three or more.
	if snap := srv.Counters().Snapshot(); snap.ResponsesFlushed >= 2*snap.Accepted+snap.SessionsOpened {
		t.Fatalf("%d replies for %d admitted transactions on %d sessions: the load did not run whole-transaction frames",
			snap.ResponsesFlushed, snap.Accepted, snap.SessionsOpened)
	}
	waitFor(t, "sessions idle", func() bool { return !srv.liveWork() })
	if err := mgr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestClosedLoopPipelinedReadMix runs the one RunLoad combination no other
// test does — the pipelined client in the closed loop, a window of
// transactions in flight per connection — with nine transactions in ten
// declared read-only and the manager injecting faults as in TestSoak. The
// run must reach its target, the read path must have carried its share,
// every update the client counts must be a commit the manager counts, and
// the drain in the startServer cleanup must come back clean.
func TestClosedLoopPipelinedReadMix(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short")
	}
	inj := fault.NewSeeded(fault.Config{Seed: 42, PDelay: 0.01, PWakeup: 0.01, PAbort: 0.002})
	mgr, err := rtm.NewWithOptions(testSet(t), rtm.Options{Injector: inj})
	if err != nil {
		t.Fatal(err)
	}
	addr, srv := startServer(t, mgr, Config{QueueDepth: 128})

	const txns = 10000
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	rep, err := client.RunLoad(ctx, client.LoadConfig{
		Addr: addr, Conns: 32, Txns: txns, Seed: 7, Pipelined: true, ReadFrac: 0.9,
	})
	if err != nil {
		t.Fatalf("load: %v (report %+v)", err, rep)
	}
	t.Logf("read mix: %d committed (%d read-only) in %v (%.0f txn/s), retries=%d failed=%d p50=%v p99=%v",
		rep.Committed, rep.ROCommitted, rep.Elapsed, rep.Throughput(), rep.Retries, rep.Failed, rep.P50, rep.P99)
	if rep.Committed < txns {
		t.Fatalf("committed %d transactions, want >= %d", rep.Committed, txns)
	}
	if rep.ROCommitted == 0 || rep.ROCommitted == rep.Committed {
		t.Fatalf("%d of %d commits read-only: want a mix", rep.ROCommitted, rep.Committed)
	}

	waitFor(t, "sessions idle", func() bool { return !srv.liveWork() })
	if err := mgr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := mgr.Stats()
	if st.Live != 0 {
		t.Fatalf("%d transactions leaked", st.Live)
	}
	if updates := rep.Committed - rep.ROCommitted; int64(st.Commits) < updates {
		t.Fatalf("manager commits %d < client update commits %d", st.Commits, updates)
	}
	if st.ROCommits < rep.ROCommitted {
		t.Fatalf("manager read-only commits %d < client read-only commits %d", st.ROCommits, rep.ROCommitted)
	}
}
