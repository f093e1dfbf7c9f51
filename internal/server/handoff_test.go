package server

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"pcpda/internal/client"
	"pcpda/internal/metrics"
	"pcpda/internal/rt"
	"pcpda/internal/rtm"
	"pcpda/internal/txn"
	"pcpda/internal/wire"
)

// The reader hands exec whole batches through a slice and exec hands the
// writer one buffer. These tests park exec in the manager in the middle of
// a batch — an "updater" WRITE of x behind a "reader" holding x's read
// lock, as a step of its own or inside a TXN — and watch both handoffs from
// a raw connection.

// rawPipe is a raw frame-level client over TCP that counts the bytes it
// writes and the bytes it reads off the socket.
type rawPipe struct {
	t           *testing.T
	conn        net.Conn
	br          *bufio.Reader
	wrote, read int64
}

func (r *rawPipe) Read(p []byte) (int, error) {
	n, err := r.conn.Read(p)
	r.read += int64(n)
	return n, err
}

func (r *rawPipe) write(b []byte) {
	r.t.Helper()
	if _, err := r.conn.Write(b); err != nil {
		r.t.Fatal(err)
	}
	r.wrote += int64(len(b))
}

func dialRaw(t *testing.T, addr string) *rawPipe {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	r := &rawPipe{t: t, conn: conn}
	r.br = bufio.NewReader(r)
	r.send(0, &wire.Hello{})
	r.expect(0, wire.KindHelloOK)
	return r
}

// send writes the messages as frames, tags counting up from first, in one
// write.
func (r *rawPipe) send(first uint32, msgs ...wire.Message) {
	r.t.Helper()
	var buf []byte
	var err error
	for i, m := range msgs {
		if buf, err = wire.AppendTagged(buf, wire.Version, first+uint32(i), m); err != nil {
			r.t.Fatal(err)
		}
	}
	r.write(buf)
}

// expect reads the next reply, requires its tag and kind, and returns it.
func (r *rawPipe) expect(tag uint32, kind wire.Kind) wire.Message {
	r.t.Helper()
	_ = r.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	m, _, got, _, err := wire.ReadAny(r.br, nil)
	if err != nil {
		r.t.Fatalf("reply to tag %d: %v", tag, err)
	}
	if got != tag || m.Kind() != kind {
		r.t.Fatalf("reply %s tag %d (%+v), want %s tag %d", m.Kind(), got, m, kind, tag)
	}
	return m
}

// expectErr reads the next reply and requires an ERR with tag and code.
func (r *rawPipe) expectErr(tag uint32, code wire.ErrorCode) {
	r.t.Helper()
	if e := r.expect(tag, wire.KindErr).(*wire.ErrMsg); e.Code != code {
		r.t.Fatalf("reply to tag %d: ERR %s (%s), want %s", tag, e.Code, e.Text, code)
	}
}

// session returns the server's session for this connection.
func (r *rawPipe) session(srv *Server) *session {
	r.t.Helper()
	var found *session
	waitFor(r.t, "the connection's session", func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		for s := range srv.sessions {
			if s.conn.RemoteAddr().String() == r.conn.LocalAddr().String() {
				found = s
			}
		}
		return found != nil
	})
	return found
}

// writeOp and readOp spell a TXN's operations.
func writeOp(item uint32, v int64) wire.TxnOp {
	return wire.TxnOp{Op: wire.OpWrite, Item: item, Value: v}
}
func readOp(item uint32) wire.TxnOp { return wire.TxnOp{Op: wire.OpRead, Item: item} }

// holdReadLock begins a "reader" on the manager itself (the server sees
// one session only) that read-locks x, so that an "updater" WRITE of x
// parks in the manager (LC1); the returned release commits it.
func holdReadLock(t *testing.T, mgr *rtm.Manager, x uint32) (release func()) {
	t.Helper()
	ctx := context.Background()
	holder, err := mgr.Begin(ctx, "reader")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := holder.Read(ctx, rt.Item(x)); err != nil {
		t.Fatal(err)
	}
	return func() {
		t.Helper()
		if err := holder.Commit(ctx); err != nil {
			t.Fatal(err)
		}
	}
}

// TestParkedMidBatch: with exec parked on the third request of a session,
// the replies queued ahead of it have been delivered, a tagged PING
// overtakes it, and requests that arrive meanwhile — a later batch — run
// after it in arrival order once it is released.
func TestParkedMidBatch(t *testing.T) {
	set := testSet(t)
	mgr, _ := rtm.New(set)
	addr, _ := startServer(t, mgr, Config{})
	x, y := item(t, set, "x"), item(t, set, "y")
	release := holdReadLock(t, mgr, x)

	r := dialRaw(t, addr)
	r.send(0, &wire.Begin{Name: "updater"}, &wire.Write{Item: x, Value: 11})
	r.expect(0, wire.KindBeginOK) // delivered although the request behind it never returns
	waitFor(t, "WRITE to park", func() bool { return mgr.ParkedWaiters() == 1 })

	r.send(2, &wire.Write{Item: y, Value: 21}, &wire.Write{Item: y, Value: 22}, &wire.Commit{})
	r.send(9, &wire.Ping{Nonce: 9})
	r.expect(9, wire.KindPong)
	if mgr.ParkedWaiters() != 1 {
		t.Fatal("the WRITE resolved before the PING — the test raced itself")
	}

	release()
	r.expect(1, wire.KindWriteOK)
	r.expect(2, wire.KindWriteOK)
	r.expect(3, wire.KindWriteOK)
	r.expect(4, wire.KindCommitOK)
	if gx, gy := mgr.ReadCommitted(0), mgr.ReadCommitted(1); gx != 11 || gy != 22 {
		t.Fatalf("committed x = %v, y = %v; want 11 and 22 (the later WRITE of y last)", gx, gy)
	}
}

// TestDisconnectMidBatch: the client vanishes while exec is parked with
// the rest of its batch — the transaction's tail and a whole second
// transaction — still unexecuted. The rest is discarded, the live
// transaction auto-aborts, and the admission accounting returns to zero.
func TestDisconnectMidBatch(t *testing.T) {
	set := testSet(t)
	mgr, _ := rtm.New(set)
	addr, srv := startServer(t, mgr, Config{})
	x, y, z := item(t, set, "x"), item(t, set, "y"), item(t, set, "z")
	release := holdReadLock(t, mgr, x)

	r := dialRaw(t, addr)
	r.send(0, &wire.Begin{Name: "updater"}, &wire.Write{Item: x, Value: 11},
		&wire.Write{Item: y, Value: 21}, &wire.Commit{},
		&wire.Begin{Name: "zonly"}, &wire.Write{Item: z, Value: 31}, &wire.Commit{})
	r.expect(0, wire.KindBeginOK)
	waitFor(t, "WRITE to park", func() bool { return mgr.ParkedWaiters() == 1 })
	sess := r.session(srv)
	waitFor(t, "the rest of the burst to be queued", func() bool { return sess.inOpen.Load() == 6 })

	_ = r.conn.Close()
	waitFor(t, "auto-abort", func() bool { return srv.Counters().AutoAborted.Load() == 1 })
	waitFor(t, "the session to end", func() bool { return srv.Counters().SessionsLive() == 0 })
	release()
	waitFor(t, "manager quiescent", func() bool { return mgr.Stats().Live == 0 })
	if p, w, a := srv.pending.Load(), mgr.ParkedWaiters(), slotsHeld(srv); p != 0 || w != 0 || a != 0 {
		t.Fatalf("pending %d, parked waiters %d, admission slots %d; want all zero", p, w, a)
	}
	if st := mgr.Stats(); st.Begins != 2 || st.Commits != 1 {
		t.Fatalf("begins = %d, commits = %d; want the holder and the aborted updater only (2, 1)", st.Begins, st.Commits)
	}
	if gy, gz := mgr.ReadCommitted(1), mgr.ReadCommitted(2); gy != 0 || gz != 0 {
		t.Fatalf("committed y = %v, z = %v; the discarded requests must not have run", gy, gz)
	}
	if err := mgr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestReaderStopsAtTheBound: with exec parked and the client writing four
// times SessionInflight requests, the reader stops with exactly
// SessionInflight decoded and unexecuted (the parked one included) and one
// more in its hands; released, every request runs in order and every reply
// is delivered through an outbound buffer bounded the same way, with the
// byte and reply counters exact.
func TestReaderStopsAtTheBound(t *testing.T) {
	const bound = 4
	set := testSet(t)
	mgr, _ := rtm.New(set)
	ctr := &metrics.ServerCounters{}
	addr, srv := startServer(t, mgr, Config{SessionInflight: bound, Counters: ctr})
	x, y := item(t, set, "x"), item(t, set, "y")
	release := holdReadLock(t, mgr, x)

	r := dialRaw(t, addr)
	r.send(0, &wire.Begin{Name: "updater"}, &wire.Write{Item: x, Value: 11})
	r.expect(0, wire.KindBeginOK)
	waitFor(t, "WRITE to park", func() bool { return mgr.ParkedWaiters() == 1 })
	var writes []wire.Message
	for i := 0; i < 4*bound; i++ {
		writes = append(writes, &wire.Write{Item: y, Value: int64(100 + i)})
	}
	r.send(2, append(writes, &wire.Commit{})...)

	sess := r.session(srv)
	// inflight counts the request in the reader's hands too; replies to
	// HELLO and BEGIN have been flushed.
	waitFor(t, "the reader to fill the table", func() bool { return sess.inflight.Load() == bound+1 })
	time.Sleep(50 * time.Millisecond) // a reader that ignored the bound would run on
	if open, inflight := sess.inOpen.Load(), sess.inflight.Load(); open != bound || inflight != bound+1 {
		t.Fatalf("decoded and unexecuted %d, in flight %d; want %d and %d", open, inflight, bound, bound+1)
	}

	release()
	r.expect(1, wire.KindWriteOK)
	for i := range writes {
		r.expect(uint32(2+i), wire.KindWriteOK)
	}
	r.expect(uint32(2+len(writes)), wire.KindCommitOK)
	if gy := int(mgr.ReadCommitted(1)); gy != 100+len(writes)-1 {
		t.Fatalf("committed y = %v, want the last WRITE's %d", gy, 100+len(writes)-1)
	}
	_ = r.conn.Close()
	waitFor(t, "the session to end", func() bool { return ctr.SessionsLive() == 0 })
	snap := ctr.Snapshot()
	// Read and not yet flushed, at its highest: the inbound table and the
	// reader's hand as above, plus an outbound buffer full of replies.
	if snap.InflightHWM > 2*bound+1 {
		t.Fatalf("InflightHWM = %d, want at most %d", snap.InflightHWM, 2*bound+1)
	}
	// HELLO + BEGIN + WRITE x + the WRITEs of y + COMMIT, each answered;
	// the client has consumed every reply and its reader holds nothing back.
	if got, want := snap.ResponsesFlushed, int64(4+len(writes)); got != want {
		t.Fatalf("ResponsesFlushed = %d, want %d", got, want)
	}
	if in, out := snap.BytesIn, snap.BytesOut; in != r.wrote || out != r.read || r.br.Buffered() != 0 {
		t.Fatalf("BytesIn %d, BytesOut %d; the client wrote %d and read %d", in, out, r.wrote, r.read)
	}
}

// TestParkedMidBatchTxn is TestParkedMidBatch with whole transactions: exec
// parks inside the second TXN of a batch, on its last operation and holding
// what the earlier ones locked. The TXN ahead of it has been answered, a
// PING overtakes it, and the TXNs that arrive meanwhile run after it, in
// arrival order, once it is released — each answered exactly once.
func TestParkedMidBatchTxn(t *testing.T) {
	set := testSet(t)
	mgr, _ := rtm.New(set)
	addr, srv := startServer(t, mgr, Config{})
	x, y, z := item(t, set, "x"), item(t, set, "y"), item(t, set, "z")
	release := holdReadLock(t, mgr, x)

	r := dialRaw(t, addr)
	r.send(1, &wire.Txn{Name: "zonly", Ops: []wire.TxnOp{writeOp(z, 5)}},
		&wire.Txn{Name: "updater", Ops: []wire.TxnOp{writeOp(y, 21), writeOp(x, 11)}})
	r.expect(1, wire.KindTxnOK) // delivered although the request behind it never returns
	waitFor(t, "the TXN to park", func() bool { return mgr.ParkedWaiters() == 1 })
	if r.session(srv).cur.Load() == nil {
		t.Fatal("the parked TXN is not the session's live transaction")
	}

	r.send(3, &wire.Txn{Name: "zonly", Ops: []wire.TxnOp{writeOp(z, 6)}},
		&wire.Txn{Name: "zonly", Ops: []wire.TxnOp{readOp(z), writeOp(z, 7)}})
	r.send(9, &wire.Ping{Nonce: 9})
	r.expect(9, wire.KindPong)
	if mgr.ParkedWaiters() != 1 {
		t.Fatal("the TXN resolved before the PING — the test raced itself")
	}

	release()
	r.expect(2, wire.KindTxnOK)
	r.expect(3, wire.KindTxnOK)
	if ok := r.expect(4, wire.KindTxnOK).(*wire.TxnOK); len(ok.Reads) != 1 || ok.Reads[0] != 6 {
		t.Fatalf("the last TXN read z = %v, want [6]: the TXN ahead of it ran first", ok.Reads)
	}
	if gx, gy, gz := mgr.ReadCommitted(0), mgr.ReadCommitted(1), mgr.ReadCommitted(2); gx != 11 || gy != 21 || gz != 7 {
		t.Fatalf("committed x = %v, y = %v, z = %v; want 11, 21 and 7", gx, gy, gz)
	}
}

// TestDisconnectMidBatchTxn: the client vanishes while exec is parked
// inside a TXN with a second TXN queued behind it. The queued one is
// discarded, the parked one auto-aborts, and the admission accounting
// returns to zero.
func TestDisconnectMidBatchTxn(t *testing.T) {
	set := testSet(t)
	mgr, _ := rtm.New(set)
	addr, srv := startServer(t, mgr, Config{})
	x, y, z := item(t, set, "x"), item(t, set, "y"), item(t, set, "z")
	release := holdReadLock(t, mgr, x)

	r := dialRaw(t, addr)
	r.send(1, &wire.Txn{Name: "updater", Ops: []wire.TxnOp{writeOp(y, 21), writeOp(x, 11)}},
		&wire.Txn{Name: "zonly", Ops: []wire.TxnOp{writeOp(z, 31)}})
	waitFor(t, "the TXN to park", func() bool { return mgr.ParkedWaiters() == 1 })
	sess := r.session(srv)
	waitFor(t, "the second TXN to be queued", func() bool { return sess.inOpen.Load() == 2 })

	_ = r.conn.Close()
	waitFor(t, "auto-abort", func() bool { return srv.Counters().AutoAborted.Load() == 1 })
	waitFor(t, "the session to end", func() bool { return srv.Counters().SessionsLive() == 0 })
	release()
	waitFor(t, "manager quiescent", func() bool { return mgr.Stats().Live == 0 })
	if p, w, a := srv.pending.Load(), mgr.ParkedWaiters(), slotsHeld(srv); p != 0 || w != 0 || a != 0 {
		t.Fatalf("pending %d, parked waiters %d, admission slots %d; want all zero", p, w, a)
	}
	if st := mgr.Stats(); st.Begins != 2 || st.Commits != 1 {
		t.Fatalf("begins = %d, commits = %d; want the holder and the aborted updater only (2, 1)", st.Begins, st.Commits)
	}
	if gy, gz := mgr.ReadCommitted(1), mgr.ReadCommitted(2); gy != 0 || gz != 0 {
		t.Fatalf("committed y = %v, z = %v; neither the aborted TXN nor the discarded one may show", gy, gz)
	}
	if err := mgr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestReaderStopsAtTheBoundTxn: SessionInflight counts frames, and a whole
// transaction is one. With exec parked inside a TXN and the client writing
// four times SessionInflight more, the reader stops with exactly
// SessionInflight transactions decoded and unexecuted and one more in its
// hands; released, every one runs in order and is answered once, with the
// byte and reply counters exact.
func TestReaderStopsAtTheBoundTxn(t *testing.T) {
	const bound = 4
	set := testSet(t)
	mgr, _ := rtm.New(set)
	ctr := &metrics.ServerCounters{}
	addr, srv := startServer(t, mgr, Config{SessionInflight: bound, Counters: ctr})
	x, z := item(t, set, "x"), item(t, set, "z")
	release := holdReadLock(t, mgr, x)

	r := dialRaw(t, addr)
	r.send(1, &wire.Txn{Name: "updater", Ops: []wire.TxnOp{writeOp(x, 11)}})
	waitFor(t, "the TXN to park", func() bool { return mgr.ParkedWaiters() == 1 })
	var txns []wire.Message
	for i := 0; i < 4*bound; i++ {
		txns = append(txns, &wire.Txn{Name: "zonly", Ops: []wire.TxnOp{writeOp(z, int64(100+i))}})
	}
	r.send(2, txns...)

	sess := r.session(srv)
	waitFor(t, "the reader to fill the table", func() bool { return sess.inflight.Load() == bound+1 })
	time.Sleep(50 * time.Millisecond) // a reader that ignored the bound would run on
	if open, inflight := sess.inOpen.Load(), sess.inflight.Load(); open != bound || inflight != bound+1 {
		t.Fatalf("decoded and unexecuted %d, in flight %d; want %d and %d", open, inflight, bound, bound+1)
	}

	release()
	for i := 0; i <= len(txns); i++ {
		r.expect(uint32(1+i), wire.KindTxnOK)
	}
	if gz := int(mgr.ReadCommitted(2)); gz != 100+len(txns)-1 {
		t.Fatalf("committed z = %v, want the last TXN's %d", gz, 100+len(txns)-1)
	}
	_ = r.conn.Close()
	waitFor(t, "the session to end", func() bool { return ctr.SessionsLive() == 0 })
	snap := ctr.Snapshot()
	// One reply a transaction, and HELLO_OK.
	if got, want := snap.ResponsesFlushed, int64(2+len(txns)); got != want {
		t.Fatalf("ResponsesFlushed = %d, want %d", got, want)
	}
	if in, out := snap.BytesIn, snap.BytesOut; in != r.wrote || out != r.read || r.br.Buffered() != 0 {
		t.Fatalf("BytesIn %d, BytesOut %d; the client wrote %d and read %d", in, out, r.wrote, r.read)
	}
}

// TestOversizedReplyReleasesBuffer: a schema reply larger than maxScratch
// is delivered whole, and the session keeps neither outbound buffer at
// that size afterwards.
func TestOversizedReplyReleasesBuffer(t *testing.T) {
	set := txn.NewSet("wide")
	x := set.Catalog.Intern("x")
	for i := 0; i < 20; i++ {
		set.Add(&txn.Template{Name: fmt.Sprintf("%02d%s", i, strings.Repeat("n", 4000)), Steps: []txn.Step{txn.Write(x)}})
	}
	set.AssignByIndex()
	mgr, err := rtm.New(set)
	if err != nil {
		t.Fatal(err)
	}
	ctr := &metrics.ServerCounters{}
	addr, srv := startServer(t, mgr, Config{Counters: ctr})
	p, err := client.DialPipelined(addr, 5*time.Second, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = p.Close() }()
	if got := len(p.Schema().Templates); got != 20 {
		t.Fatalf("schema carries %d templates, want 20", got)
	}
	if err := p.Ping(1); err != nil {
		t.Fatal(err)
	}
	srv.mu.Lock()
	var sess *session
	for s := range srv.sessions { // there is one
		sess = s
	}
	srv.mu.Unlock()
	// The counters move after the flush has let go of its buffer, so both
	// buffers are at rest once the PONG's flush is counted.
	waitFor(t, "both flushes", func() bool { return ctr.ResponseFlushes.Load() == 2 })
	if out := ctr.BytesOut.Load(); out <= maxScratch {
		t.Fatalf("BytesOut = %d: the schema reply was meant to exceed maxScratch (%d)", out, maxScratch)
	}
	sess.outMu.Lock()
	held := max(cap(sess.outBuf), cap(sess.outSpare))
	sess.outMu.Unlock()
	if held > maxScratch {
		t.Fatalf("the session still holds a %d-byte outbound buffer (maxScratch %d)", held, maxScratch)
	}
}
