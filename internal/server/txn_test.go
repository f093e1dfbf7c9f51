package server

import (
	"bufio"
	"context"
	"net"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pcpda/internal/client"
	"pcpda/internal/fault"
	"pcpda/internal/rtm"
	"pcpda/internal/wire"
)

// A TXN frame is a whole transaction: admission, every operation, commit,
// one reply. These tests send it every way it can end.

// jammed is the admission configuration of TestShedUnderBurst:
// one admission slot, a queue of four that sheds from one up — with
// jamAdmission, arrivals stay queued.
var jammed = Config{QueueDepth: 4, HighWater: 1, MaxAdmitting: 1}

// queueUpdaters leaves n "updater" BEGINs queued at a jammed gate and
// returns their connections.
func queueUpdaters(t *testing.T, addr string, srv *Server, n int) []*client.PipeConn {
	t.Helper()
	var conns []*client.PipeConn
	for i := 1; i <= n; i++ {
		conns = append(conns, pendingBegin(t, addr, "updater"))
		waitFor(t, "updater queued", func() bool { return srv.queue.depthNow() == i })
	}
	return conns
}

// TestTxnOutcomes sends one TXN into each way a transaction can fail and
// requires of every row: exactly one reply for the TXN's tag (or none, when
// the client is gone), of the row's code; no transaction left on the
// session; and, once the row's obstacle is lifted, nothing live and nothing
// parked in the manager and the same session committing a fresh TXN.
func TestTxnOutcomes(t *testing.T) {
	type world struct {
		t    *testing.T
		addr string
		srv  *Server
		mgr  *rtm.Manager
		x, z uint32
	}
	abortOnce := new(atomic.Bool)
	rows := []struct {
		name string
		cfg  Config
		inj  fault.Injector
		// arrange builds the obstacle and returns the TXN to send into it
		// and what lifts it.
		arrange    func(w world) (wire.Txn, func())
		want       wire.ErrorCode
		disconnect bool // hang up once the TXN is parked instead of reading a reply
	}{
		{name: "draining", want: wire.CodeDraining,
			arrange: func(w world) (wire.Txn, func()) {
				w.srv.draining.Store(true)
				return wire.Txn{Name: "zonly"}, func() { w.srv.draining.Store(false) }
			}},
		{name: "unknown-template", want: wire.CodeProtocol,
			arrange: func(w world) (wire.Txn, func()) { return wire.Txn{Name: "nope"}, func() {} }},
		{name: "unknown-template-longest-name", want: wire.CodeProtocol, // the refusal quotes the name and must still fit a frame
			arrange: func(w world) (wire.Txn, func()) {
				return wire.Txn{Name: strings.Repeat("n", wire.MaxString)}, func() {}
			}},
		{name: "shed", cfg: jammed, want: wire.CodeShed,
			arrange: func(w world) (wire.Txn, func()) {
				holder, parked := jamAdmission(w.t, w.addr, w.srv, w.mgr)
				queued := queueUpdaters(w.t, w.addr, w.srv, 2) // past the high-water mark, all outranking zonly
				return wire.Txn{Name: "zonly"}, func() { closeAll(holder, parked, queued) }
			}},
		{name: "queue-full", cfg: jammed, want: wire.CodeOverload,
			arrange: func(w world) (wire.Txn, func()) {
				holder, parked := jamAdmission(w.t, w.addr, w.srv, w.mgr)
				queued := queueUpdaters(w.t, w.addr, w.srv, 4) // full, and an updater does not outrank an updater
				return wire.Txn{Name: "updater"}, func() { closeAll(holder, parked, queued) }
			}},
		{name: "infeasible", cfg: jammed, want: wire.CodeInfeasible,
			arrange: func(w world) (wire.Txn, func()) {
				holder, parked := jamAdmission(w.t, w.addr, w.srv, w.mgr)
				queued := queueUpdaters(w.t, w.addr, w.srv, 1)
				w.srv.queue.ewmaWaitNs.Store(int64(200 * time.Millisecond))
				return wire.Txn{Name: "reader", Deadline: 50}, func() { closeAll(holder, parked, queued) }
			}},
		{name: "undeclared-item", want: wire.CodeProtocol,
			arrange: func(w world) (wire.Txn, func()) {
				return wire.Txn{Name: "reader", Ops: []wire.TxnOp{readOp(w.x), writeOp(w.x, 9)}}, func() {}
			}},
		{name: "cycle-victim", want: wire.CodeAborted,
			// The protocol's own guards keep wait cycles unreachable
			// (rtm/cycle_test.go); the injector forces the sacrifice path.
			inj: fault.Func(func(p fault.Point, name string) fault.Action {
				if p == fault.CommitEntry && name == "updater" && abortOnce.CompareAndSwap(false, true) {
					return fault.ForceAbort
				}
				return fault.Proceed
			}),
			arrange: func(w world) (wire.Txn, func()) {
				return wire.Txn{Name: "updater", Ops: []wire.TxnOp{writeOp(w.x, 9)}}, func() {}
			}},
		{name: "disconnect-while-parked", disconnect: true,
			arrange: func(w world) (wire.Txn, func()) {
				release := holdReadLock(w.t, w.mgr, w.x)
				return wire.Txn{Name: "updater", Ops: []wire.TxnOp{writeOp(w.x, 9)}}, release
			}},
		{name: "watchdog-while-parked", want: wire.CodeDeadline,
			cfg: Config{WatchdogInterval: 2 * time.Millisecond, WatchdogGrace: 10 * time.Millisecond},
			arrange: func(w world) (wire.Txn, func()) {
				release := holdReadLock(w.t, w.mgr, w.x)
				return wire.Txn{Name: "updater", Deadline: 20, Ops: []wire.TxnOp{writeOp(w.x, 9)}}, release
			}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			set := testSet(t)
			mgr, err := rtm.NewWithOptions(set, rtm.Options{Injector: row.inj})
			if err != nil {
				t.Fatal(err)
			}
			addr, srv := startServer(t, mgr, row.cfg)
			w := world{t, addr, srv, mgr, item(t, set, "x"), item(t, set, "z")}
			r := dialRaw(t, addr)
			sess := r.session(srv)
			txn, lift := row.arrange(w)

			r.send(7, &txn)
			if row.disconnect {
				waitFor(t, "the TXN to park", func() bool { return mgr.ParkedWaiters() == 1 })
				if sess.cur.Load() == nil {
					t.Fatal("a parked TXN is not visible to the watchdog and Drain")
				}
				_ = r.conn.Close()
				waitFor(t, "auto-abort", func() bool { return srv.Counters().AutoAborted.Load() == 1 })
				lift()
			} else {
				r.expectErr(7, row.want)
				if row.want == wire.CodeDeadline && !row.want.Retryable() {
					t.Fatal("a watchdog force-abort must be retryable")
				}
				// Exactly one: the next frame on the wire answers the next request.
				r.send(8, &wire.Ping{Nonce: 8})
				r.expect(8, wire.KindPong)
				if sess.cur.Load() != nil {
					t.Fatal("the failed TXN left a transaction on the session")
				}
				lift()
				waitFor(t, "admission pipeline to empty", func() bool { return srv.pending.Load() == 0 })
				r.send(9, &wire.Txn{Name: "zonly", Ops: []wire.TxnOp{writeOp(w.z, 5)}})
				r.expect(9, wire.KindTxnOK)
				if v := mgr.ReadCommitted(2); v != 5 {
					t.Fatalf("committed z = %v, want 5", v)
				}
			}
			waitFor(t, "manager quiescent", func() bool { return mgr.Stats().Live == 0 && mgr.ParkedWaiters() == 0 })
			if v := mgr.ReadCommitted(0); v != 0 {
				t.Fatalf("the failed TXN's write of x was installed: %v", v)
			}
			if n := srv.Counters().WatchdogAuditFails.Load(); n != 0 {
				t.Fatalf("watchdog audit failures: %d", n)
			}
			if err := mgr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// closeAll hangs up every connection: queued and parked admissions are
// abandoned or auto-aborted.
func closeAll(a, b *client.PipeConn, more []*client.PipeConn) {
	for _, conn := range append(more, a, b) {
		_ = conn.Close()
	}
}

// TestTxnWhileInteractiveLive: a TXN that arrives while the session has a
// transaction open a step at a time is refused with CodeState, and that
// transaction is left alone — it still writes and commits.
func TestTxnWhileInteractiveLive(t *testing.T) {
	set := testSet(t)
	mgr, _ := rtm.New(set)
	addr, srv := startServer(t, mgr, Config{})
	x, z := item(t, set, "x"), item(t, set, "z")
	r := dialRaw(t, addr)
	r.send(1, &wire.Begin{Name: "updater"}, &wire.Write{Item: x, Value: 1},
		&wire.Txn{Name: "zonly", Ops: []wire.TxnOp{writeOp(z, 3)}},
		&wire.Txn{ReadOnly: true, Ops: []wire.TxnOp{readOp(x)}},
		&wire.Write{Item: x, Value: 2}, &wire.Commit{})
	r.expect(1, wire.KindBeginOK)
	r.expect(2, wire.KindWriteOK)
	r.expectErr(3, wire.CodeState)
	r.expectErr(4, wire.CodeState)
	r.expect(5, wire.KindWriteOK)
	r.expect(6, wire.KindCommitOK)
	if gx, gz := mgr.ReadCommitted(0), mgr.ReadCommitted(2); gx != 2 || gz != 0 {
		t.Fatalf("committed x = %v, z = %v; want the interactive transaction's 2 and the refused TXN's nothing", gx, gz)
	}
	if got := srv.Counters().Accepted.Load(); got != 1 {
		t.Fatalf("accepted = %d, want 1: a refused TXN is not admitted", got)
	}
}

// TestReadOnlyTxnWithAWriteIsRefused: a read-only TXN that carries a write
// is refused with CodeProtocol before any snapshot is taken, and the
// session goes on serving read-only TXNs.
func TestReadOnlyTxnWithAWriteIsRefused(t *testing.T) {
	set := testSet(t)
	mgr, _ := rtm.New(set)
	addr, srv := startServer(t, mgr, Config{})
	x := item(t, set, "x")
	r := dialRaw(t, addr)
	r.send(1, &wire.Txn{ReadOnly: true, Ops: []wire.TxnOp{readOp(x), writeOp(x, 5)}})
	r.expectErr(1, wire.CodeProtocol)
	if ro, begins := srv.Counters().ROAccepted.Load(), mgr.Stats().ROBegins; ro != 0 || begins != 0 {
		t.Fatalf("ROAccepted = %d, ROBegins = %d; want 0 and 0: the write is refused before a snapshot", ro, begins)
	}
	r.send(2, &wire.Txn{ReadOnly: true, Ops: []wire.TxnOp{readOp(x)}})
	if ok := r.expect(2, wire.KindTxnOK).(*wire.TxnOK); len(ok.Reads) != 1 || ok.Reads[0] != 0 {
		t.Fatalf("read-only TXN after the refusal read %v, want [0]", ok.Reads)
	}
}

// TestTxnReadsInStepOrder: TXN_OK carries every value the transaction
// read, in the order its reads appear among its operations — its own writes
// included — and they are what the manager holds.
func TestTxnReadsInStepOrder(t *testing.T) {
	set := testSet(t)
	mgr, _ := rtm.New(set)
	addr, srv := startServer(t, mgr, Config{})
	x, y := item(t, set, "x"), item(t, set, "y")
	r := dialRaw(t, addr)

	r.send(1, &wire.Txn{Name: "updater", Ops: []wire.TxnOp{
		readOp(x), writeOp(x, 7), readOp(x), writeOp(y, 8), writeOp(x, 9), readOp(x), readOp(y)}})
	ok := r.expect(1, wire.KindTxnOK).(*wire.TxnOK)
	if want := []int64{0, 7, 9, 8}; !slices.Equal(ok.Reads, want) {
		t.Fatalf("updater read %v, want %v: the old x, then its own writes", ok.Reads, want)
	}
	if x, y := mgr.ReadCommitted(0), mgr.ReadCommitted(1); x != 9 || y != 8 {
		t.Fatalf("committed x = %v, y = %v; want 9 and 8", x, y)
	}

	r.send(2, &wire.Txn{Name: "reader", Ops: []wire.TxnOp{readOp(y), readOp(x), readOp(y)}},
		&wire.Txn{ReadOnly: true, Ops: []wire.TxnOp{readOp(x), readOp(y)}},
		&wire.Txn{Name: "zonly"})
	gx, gy := int64(mgr.ReadCommitted(0)), int64(mgr.ReadCommitted(1))
	for i, want := range [][]int64{{gy, gx, gy}, {gx, gy}, nil} {
		tag := uint32(2 + i)
		ok := r.expect(tag, wire.KindTxnOK).(*wire.TxnOK)
		if !slices.Equal(ok.Reads, want) {
			t.Fatalf("TXN %d read %v, want %v", tag, ok.Reads, want)
		}
		if ro := ok.ID&roIDFlag != 0; ro != (tag == 3) {
			t.Fatalf("TXN %d reported id %#x", tag, ok.ID)
		}
	}
	snap := srv.Counters().Snapshot()
	if snap.Accepted != 3 || snap.ROAccepted != 1 {
		t.Fatalf("accepted %d, read-only accepted %d; want 3 and 1", snap.Accepted, snap.ROAccepted)
	}
	// One reply a transaction: HELLO_OK and four TXN_OKs.
	waitFor(t, "the replies to be counted", func() bool { return srv.Counters().ResponsesFlushed.Load() == 5 })
}

// statsDelta is after − before, counter by counter and the decision tally
// rule by rule (rules that did not move are left out).
func statsDelta(after, before rtm.Stats) rtm.Stats {
	var d rtm.Stats
	a, b, out := reflect.ValueOf(after), reflect.ValueOf(before), reflect.ValueOf(&d).Elem()
	for i := 0; i < a.NumField(); i++ {
		if a.Field(i).Kind() == reflect.Slice {
			continue // the decision tally, below
		}
		if a.Field(i).CanInt() {
			out.Field(i).SetInt(a.Field(i).Int() - b.Field(i).Int())
		} else {
			out.Field(i).SetUint(a.Field(i).Uint() - b.Field(i).Uint())
		}
	}
	for _, l := range after.Decisions {
		for _, p := range before.Decisions {
			if p.Rule == l.Rule {
				l.Grants, l.Blocks = l.Grants-p.Grants, l.Blocks-p.Blocks
			}
		}
		if l.Grants != 0 || l.Blocks != 0 {
			d.Decisions = append(d.Decisions, l)
		}
	}
	return d
}

// TestConversationEqualsTxn: one transaction sent as a conversation — a
// frame and a round trip per step — and then whole, as a TXN frame, on the
// same connection reads the same values, commits the same values and moves
// every manager counter by the same amount. The conversation never has two
// requests in the server at once: each step is flushed when it is waited
// on, not before the previous reply.
func TestConversationEqualsTxn(t *testing.T) {
	set := testSet(t)
	mgr, _ := rtm.New(set)
	addr, srv := startServer(t, mgr, Config{})
	x, y := item(t, set, "x"), item(t, set, "y")
	c := mustDial(t, addr)
	defer func() { _ = c.Close() }()
	committed := func() [2]int64 { return [2]int64{int64(mgr.ReadCommitted(0)), int64(mgr.ReadCommitted(1))} }

	s0 := mgr.Stats()
	if _, err := c.Begin("updater"); err != nil {
		t.Fatal(err)
	}
	var conv []int64
	for _, st := range []wire.TxnOp{readOp(x), writeOp(x, 7), readOp(x), writeOp(y, 8), readOp(y)} {
		if st.Op == wire.OpWrite {
			if err := c.Write(st.Item, st.Value); err != nil {
				t.Fatal(err)
			}
			continue
		}
		v, err := c.Read(st.Item)
		if err != nil {
			t.Fatal(err)
		}
		conv = append(conv, v)
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	s1, afterConv := mgr.Stats(), committed()
	if n := srv.Counters().PipelinedSessions.Load(); n != 0 {
		t.Fatalf("the conversation overlapped requests on its session (pipelined sessions = %d)", n)
	}

	// The same steps whole: x's first read finds the conversation's 7.
	fut, err := c.SubmitTxn("updater", 0, []wire.Message{
		&wire.Read{Item: x}, &wire.Write{Item: x, Value: 7}, &wire.Read{Item: x},
		&wire.Write{Item: y, Value: 8}, &wire.Read{Item: y}})
	if err != nil {
		t.Fatal(err)
	}
	if err := fut.Wait(); err != nil {
		t.Fatal(err)
	}
	if whole := fut.Reads(); !slices.Equal(conv, []int64{0, 7, 8}) || !slices.Equal(whole, []int64{7, 7, 8}) {
		t.Fatalf("conversation read %v, TXN read %v; want [0 7 8] and [7 7 8]", conv, whole)
	}
	if got := committed(); got != afterConv || got != [2]int64{7, 8} {
		t.Fatalf("committed x, y = %v after the TXN, %v after the conversation; want [7 8] both", got, afterConv)
	}
	if dConv, dTxn := statsDelta(s1, s0), statsDelta(mgr.Stats(), s1); !reflect.DeepEqual(dConv, dTxn) || dConv.Commits != 1 || len(dConv.Decisions) == 0 {
		t.Fatalf("manager counters moved differently:\nconversation %+v\nTXN          %+v", dConv, dTxn)
	}
}

// TestOtherFramingRefusedAtFirstFrame: a peer still speaking one of the
// framings this one replaced — here the untagged v2 HELLO every older
// client opens with, six bytes where this framing's header is ten — is
// answered at once with a CodeProtocol ERR at tag 0 and hung up on, rather
// than waited on for the rest of a header; so is a frame of this framing
// that does not parse, at its own tag.
func TestOtherFramingRefusedAtFirstFrame(t *testing.T) {
	mgr, _ := rtm.New(testSet(t))
	addr, srv := startServer(t, mgr, Config{})
	for name, tc := range map[string]struct {
		first []byte
		tag   uint32
	}{
		"v2 HELLO":     {[]byte{2, uint8(wire.KindHello), 0, 0, 0, 0}, 0},
		"unknown kind": {[]byte{wire.Version, 0x70, 0, 0, 0, 42, 0, 0, 0, 0}, 42},
	} {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		_ = nc.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := nc.Write(tc.first); err != nil {
			t.Fatal(err)
		}
		m, _, tag, _, err := wire.ReadAny(bufio.NewReader(nc), nil)
		if err != nil {
			t.Fatalf("%s: no refusal: %v", name, err)
		}
		if e, isErr := m.(*wire.ErrMsg); !isErr || e.Code != wire.CodeProtocol || tag != tc.tag {
			t.Fatalf("%s: refused with %+v at tag %d, want CodeProtocol at tag %d", name, m, tag, tc.tag)
		}
		if _, err := nc.Read(make([]byte, 1)); err == nil {
			t.Fatalf("%s: the server kept talking after the refusal", name)
		}
		_ = nc.Close()
	}
	waitFor(t, "both sessions to end", func() bool { return srv.Counters().SessionsLive() == 0 })
}

// TestDrainSeesParkedTxn: a TXN parked on a lock is live work to Drain,
// which refuses new transactions, waits for that one to finish and only
// then audits.
func TestDrainSeesParkedTxn(t *testing.T) {
	set := testSet(t)
	mgr, _ := rtm.New(set)
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
	x := item(t, set, "x")
	release := holdReadLock(t, mgr, x)

	r := dialRaw(t, ln.Addr().String())
	r.send(1, &wire.Txn{Name: "updater", Ops: []wire.TxnOp{writeOp(x, 9)}})
	waitFor(t, "the TXN to park", func() bool { return mgr.ParkedWaiters() == 1 })
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(ctx) }()
	waitFor(t, "draining flag", func() bool { return srv.draining.Load() })
	select {
	case err := <-drained:
		t.Fatalf("Drain returned (%v) with a TXN parked in the manager", err)
	case <-time.After(50 * time.Millisecond):
	}
	release()
	r.expect(1, wire.KindTxnOK)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	<-serveDone
	if v, n := mgr.ReadCommitted(0), srv.Counters().DrainAborted.Load(); v != 9 || n != 0 {
		t.Fatalf("committed x = %v with %d transactions aborted by the drain; want 9 and 0", v, n)
	}
}
