package server

import (
	"context"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pcpda/internal/client"
	"pcpda/internal/rtm"
	"pcpda/internal/wire"
)

// A live transaction is its own context.Context: the session's, plus a
// cancellation the watchdog can aim at it alone. The cancellable child of
// the session context that a parked manager call waits on is built when a
// call first asks for Done — these tests count how often that is, and
// cancel around it in both orders.

// TestLiveTxContext drives liveTx as the manager does — Err on the way in,
// Done only when about to park — against the watchdog's trip and the
// session's end, in every order.
func TestLiveTxContext(t *testing.T) {
	newTx := func() (*liveTx, context.CancelFunc) {
		ctx, cancel := context.WithCancel(context.Background())
		t.Cleanup(cancel)
		return &liveTx{Context: ctx, made: new(atomic.Int64)}, cancel
	}
	trip := func(lt *liveTx) bool { // as the watchdog does
		if !lt.tripped.CompareAndSwap(false, true) {
			return false
		}
		lt.cancel()
		return true
	}
	closed := func(ch <-chan struct{}) bool {
		select {
		case <-ch:
			return true
		default:
			return false
		}
	}

	// A trip between the manager's look at Err and its first call of Done is
	// not lost: the context that call parks on is born cancelled.
	lt, _ := newTx()
	if err := lt.Err(); err != nil {
		t.Fatalf("a fresh transaction's context: %v", err)
	}
	if !trip(lt) || trip(lt) {
		t.Fatal("trip must report true exactly once")
	}
	if !closed(lt.Done()) || lt.Err() != context.Canceled {
		t.Fatalf("a trip ahead of the first Done was lost: Err = %v", lt.Err())
	}

	// Parked first, tripped second: the channel the call is waiting on closes.
	lt, _ = newTx()
	done := lt.Done()
	if closed(done) || lt.Err() != nil {
		t.Fatal("an untouched transaction's context is cancelled")
	}
	if done != lt.Done() {
		t.Fatal("Done built a second context")
	}
	trip(lt)
	if !closed(done) || lt.Err() != context.Canceled {
		t.Fatalf("a trip did not reach the parked call: Err = %v", lt.Err())
	}
	if n := lt.made.Load(); n != 1 {
		t.Fatalf("%d contexts built for one transaction", n)
	}

	// The session ending reaches a parked call and one that never parked.
	lt, end := newTx()
	done = lt.Done()
	end()
	if !closed(done) || lt.Err() != context.Canceled {
		t.Fatalf("the session's end did not reach the parked call: Err = %v", lt.Err())
	}
	lt, end = newTx()
	end()
	if lt.Err() != context.Canceled || !closed(lt.Done()) {
		t.Fatal("the session's end did not reach a transaction that had not parked")
	}

	// clearTx's cancel with nothing built is nothing; with a child, it lets
	// go of it without marking the transaction tripped.
	lt, _ = newTx()
	lt.cancel()
	done = lt.Done()
	lt.cancel()
	if !closed(done) || lt.tripped.Load() {
		t.Fatal("cancel must cancel the child and only that")
	}
}

// TestLiveTxErr: Err reports a live transaction, a session that ended and a
// watchdog trip, and builds no context for any of them.
func TestLiveTxErr(t *testing.T) {
	for _, c := range []struct {
		name    string
		end     bool // the session context is cancelled
		tripped bool
		want    error
	}{
		{"live", false, false, nil},
		{"session cancelled", true, false, context.Canceled},
		{"watchdog tripped", false, true, context.Canceled},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		lt := &liveTx{Context: ctx, made: new(atomic.Int64)}
		if c.end {
			cancel()
		}
		lt.tripped.Store(c.tripped)
		if err := lt.Err(); err != c.want {
			t.Errorf("%s: Err = %v, want %v", c.name, err, c.want)
		}
		if n := lt.made.Load(); n != 0 {
			t.Errorf("%s: Err built %d contexts", c.name, n)
		}
		cancel()
	}
}

// TestOnlyParkedTxnBuildsContext: transactions that run straight through —
// whole TXNs, a read-only snapshot, one driven a step at a time — build no
// context of their own; the one that parks on a lock builds exactly one.
func TestOnlyParkedTxnBuildsContext(t *testing.T) {
	set := testSet(t)
	mgr, _ := rtm.New(set)
	addr, srv := startServer(t, mgr, Config{})
	x, z := item(t, set, "x"), item(t, set, "z")
	r := dialRaw(t, addr)

	for i := uint32(0); i < 20; i++ {
		r.send(1+3*i, &wire.Txn{Name: "updater", Ops: []wire.TxnOp{readOp(x), writeOp(x, int64(i))}},
			&wire.Txn{ReadOnly: true, Ops: []wire.TxnOp{readOp(x)}},
			&wire.Txn{Name: "zonly", Ops: []wire.TxnOp{writeOp(z, int64(i))}})
		for k := uint32(0); k < 3; k++ {
			r.expect(1+3*i+k, wire.KindTxnOK)
		}
	}
	r.send(100, &wire.Begin{Name: "updater"}, &wire.Write{Item: x, Value: 1}, &wire.Commit{})
	r.expect(100, wire.KindBeginOK)
	r.expect(101, wire.KindWriteOK)
	r.expect(102, wire.KindCommitOK)
	if n := srv.txCtxMade.Load(); n != 0 {
		t.Fatalf("%d contexts built by transactions that never parked", n)
	}

	release := holdReadLock(t, mgr, x)
	r.send(200, &wire.Txn{Name: "updater", Ops: []wire.TxnOp{writeOp(x, 9)}})
	waitFor(t, "the TXN to park", func() bool { return mgr.ParkedWaiters() == 1 })
	release()
	r.expect(200, wire.KindTxnOK)
	if n := srv.txCtxMade.Load(); n != 1 {
		t.Fatalf("%d contexts built with one transaction parked once, want 1", n)
	}
}

// TestBeginUnknownLongName: a BEGIN naming a template that does not exist,
// with a name as long as a frame can carry, is a typed refusal like any
// other — one CodeProtocol reply, and the session goes on to commit a TXN.
// (TestTxnOutcomes holds the TXN twin of this row.)
func TestBeginUnknownLongName(t *testing.T) {
	set := testSet(t)
	mgr, _ := rtm.New(set)
	addr, srv := startServer(t, mgr, Config{})
	r := dialRaw(t, addr)
	r.send(1, &wire.Begin{Name: strings.Repeat("n", wire.MaxString)})
	r.expectErr(1, wire.CodeProtocol)
	r.send(2, &wire.Ping{Nonce: 2}) // exactly one reply: the next frame answers the next request
	r.expect(2, wire.KindPong)
	r.send(3, &wire.Txn{Name: "zonly", Ops: []wire.TxnOp{writeOp(item(t, set, "z"), 5)}})
	r.expect(3, wire.KindTxnOK)
	if live := srv.Counters().SessionsLive(); live != 1 {
		t.Fatalf("%d sessions live: the refusal cost the session", live)
	}
}

// goroutinesIn counts the goroutines with a frame of one of the named
// functions on their stack.
func goroutinesIn(funcs ...string) int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		for _, f := range funcs {
			if strings.Contains(g, f+"(") { // a frame; a "created by" line has no argument list
				n++
				break
			}
		}
	}
	return n
}

// TestGoroutinesPerConnection: a pipelined connection is three goroutines
// in the server (exec, reader, writer) and one in the client (demux), and
// all four are gone once it is closed.
func TestGoroutinesPerConnection(t *testing.T) {
	set := testSet(t)
	mgr, _ := rtm.New(set)
	addr, srv := startServer(t, mgr, Config{})
	inSession := func() int {
		return goroutinesIn("server.(*session).run", "server.(*session).readLoop", "server.(*session).writeLoop")
	}
	demux := func() int { return goroutinesIn("client.(*PipeConn).demux") }
	waitFor(t, "earlier tests' connections to be gone", func() bool { return inSession()+demux() == 0 })
	const conns = 5
	var ps []*client.PipeConn
	for i := 0; i < conns; i++ {
		p, err := client.DialPipelined(addr, 5*time.Second, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.RunTxn("zonly", 0, []wire.Message{&wire.Write{Item: item(t, set, "z"), Value: 1}}); err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	if s, d := inSession(), demux(); s != 3*conns || d != conns {
		t.Fatalf("%d connections run %d session goroutines and %d demuxes, want %d and %d", conns, s, d, 3*conns, conns)
	}
	for _, p := range ps {
		_ = p.Close()
	}
	waitFor(t, "sessions to end", func() bool { return srv.Counters().SessionsLive() == 0 })
	waitFor(t, "every goroutine of a closed connection to exit", func() bool { return inSession()+demux() == 0 })
}
