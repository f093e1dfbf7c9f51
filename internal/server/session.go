package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"pcpda/internal/db"
	"pcpda/internal/metrics"
	"pcpda/internal/rt"
	"pcpda/internal/rtm"
	"pcpda/internal/txn"
	"pcpda/internal/wire"
)

// maxScratch caps how much frame-buffer capacity a session retains between
// messages (in each direction). A reply or request larger than this still
// works — the buffer grows for the one frame — but the capacity is released
// afterwards, so one big schema reply cannot pin memory for the lifetime of
// every session.
const maxScratch = 64 << 10

// txnHandle is what a session needs from a transaction: the common
// surface of an update transaction (*rtm.Txn, locking PCP-DA) and a
// read-only snapshot transaction (*rtm.ROTxn, lock-free). The session
// state machine is identical for both; only BEGIN routing differs.
type txnHandle interface {
	Read(ctx context.Context, item rt.Item) (db.Value, error)
	Write(ctx context.Context, item rt.Item, v db.Value) error
	Commit(ctx context.Context) error
	Abort()
}

// liveTx is the state of one live transaction on a session. The exec
// goroutine owns it; the watchdog and Drain observe it through the
// session's cur pointer. Manager calls for the transaction run under
// lt.ctx (derived from the session context), so the watchdog can force a
// stuck transaction to unwind — cancel unparks it, Abort releases its
// locks — without tearing down the whole session.
type liveTx struct {
	tx       txnHandle
	ctx      context.Context
	cancel   context.CancelFunc
	start    time.Time
	deadline time.Time   // firm deadline from BEGIN; zero = none
	tripped  atomic.Bool // set once by the watchdog before force-aborting
}

// txDesc names a transaction for logs: job id and template for an update
// transaction, the RO sequence number for a snapshot transaction.
func txDesc(h txnHandle) (id int64, name string) {
	switch t := h.(type) {
	case *rtm.Txn:
		return int64(t.ID()), t.Template().Name
	case *rtm.ROTxn:
		return t.ID(), "read-only"
	}
	return 0, "?"
}

// request is one decoded frame plus the framing needed to address its
// reply: the version the request arrived at (replies echo it, so a v1
// client never sees a v2-only error code) and, for tagged v3 frames, the
// client-chosen tag the reply must carry.
type request struct {
	m   wire.Message
	ver uint8
	tag uint32
}

// session is the per-connection state machine. Three goroutines exist per
// session:
//
//   - run (exec) owns the transaction handle and all manager calls; it
//     consumes requests in arrival order (FIFO execution, even when
//     pipelined) and queues replies;
//   - readLoop owns conn reads: it decodes frames out of one buffered
//     reader (a burst is one read on the socket), feeds run through a
//     bounded channel (the inflight table — a full table blocks the
//     reader, which is TCP backpressure to a pipelining client), and
//     cancels the session context the moment the connection dies;
//   - writeLoop owns conn writes: it coalesces every queued reply into
//     one writev-style net.Buffers flush per wakeup, under the write
//     deadline (the slow-client defense — see flushOut).
//
// They share nothing mutable except the context, the request channel and
// the outbound reply queue; disconnects propagate as a context
// cancellation, never as shared state.
type session struct {
	srv    *Server            //pcpda:guardedby immutable
	conn   net.Conn           //pcpda:guardedby immutable
	ctx    context.Context    //pcpda:guardedby immutable
	cancel context.CancelFunc //pcpda:guardedby immutable
	shard  *admitShard        //pcpda:guardedby immutable — admission shard this session's BEGINs enqueue to

	lt  *liveTx                //pcpda:guardedby none — live transaction; owned by run
	cur atomic.Pointer[liveTx] // mirror of lt, read by Drain and the watchdog

	// Outbound reply path (writeLoop). outSem bounds queued-but-unflushed
	// replies: replyTo acquires a slot, flushOut releases. outQ holds
	// pooled encoded frames in queue order.
	outMu      sync.Mutex
	outQ       []*[]byte     //pcpda:guardedby outMu — pooled encoded frames in queue order
	outSem     chan struct{} // capacity SessionInflight
	outWake    chan struct{} // buffered(1); signals the writer
	writerDone chan struct{}
	wbufs      net.Buffers //pcpda:guardedby none — flush scratch, owned by writeLoop

	inflight  atomic.Int64 // requests read minus replies flushed
	pipelined atomic.Bool  // session has sent at least one tagged frame
}

// connReader is the bottom of a session's read path: every Read is one
// read on the socket, preceded by the idle deadline and added to the shared
// BytesIn counter. The session decodes frames through one bufio.Reader
// over it, so a burst the peer wrote with one write costs one Read here —
// and the deadline is re-armed exactly when the reader has run out of
// buffered bytes and is about to wait, never per frame. The idle contract
// is unchanged: no bytes for IdleTimeout ends the session, because the
// deadline still precedes every read that can block.
type connReader struct {
	conn net.Conn
	idle time.Duration
	n    *atomic.Int64
}

func (c connReader) Read(p []byte) (int, error) {
	if err := c.conn.SetReadDeadline(timeNow().Add(c.idle)); err != nil {
		return 0, err
	}
	n, err := c.conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// errSessionEnd tells run to exit after a reply that terminates the
// conversation (protocol violation or encode failure).
var errSessionEnd = errors.New("session end")

func (s *session) run() {
	reqs := make(chan request, s.srv.cfg.SessionInflight)
	readerDone := make(chan struct{})
	go s.writeLoop()
	go s.readLoop(reqs, readerDone)
	// LIFO: cleanup closes the connection first, which unblocks a reader
	// stuck mid-ReadAny; only then wait for it to exit.
	defer func() { <-readerDone }()
	defer s.cleanup()

	if err := s.handshake(reqs); err != nil {
		return
	}
	for {
		select {
		case <-s.ctx.Done():
			return
		case req := <-reqs:
			if err := s.handle(req); err != nil {
				if !errors.Is(err, errSessionEnd) && !errors.Is(err, context.Canceled) {
					s.srv.logf("session %s: %v", s.conn.RemoteAddr(), err)
				}
				return
			}
		}
	}
}

// readLoop decodes frames off the connection and feeds run. Any read
// failure — disconnect, idle timeout, malformed frame — cancels the
// session context, which unparks run from whatever manager call it is
// blocked in. Tagged PINGs are answered here directly, out of order: a
// pipelined client's liveness probe must not wait behind a BEGIN parked
// in admission.
func (s *session) readLoop(reqs chan<- request, done chan<- struct{}) {
	defer close(done)
	defer s.cancel()
	br := bufio.NewReader(connReader{conn: s.conn, idle: s.srv.cfg.IdleTimeout, n: &s.srv.ctr.BytesIn})
	var scratch []byte
	var hwm int64
	defer func() { metrics.MaxInt64(&s.srv.ctr.InflightHWM, hwm) }()
	maxVer := s.srv.cfg.MaxWireVersion
	for {
		m, ver, tag, sc, err := wire.ReadAny(br, scratch)
		if err != nil {
			return
		}
		scratch = sc
		if cap(scratch) > maxScratch {
			scratch = nil
		}
		req := request{m: m, ver: ver, tag: tag}
		if ver > maxVer {
			// A frame newer than this server is configured to speak is a
			// protocol violation. The reply is framed at the newest version
			// the server allows — untagged v2 on a pinned server, tagged at
			// maxVer otherwise — queued, and delivered by the final writer
			// flush before cleanup closes the connection.
			rv := request{ver: maxVer, tag: tag}
			if maxVer < wire.V3 {
				rv = request{ver: wire.V2}
			}
			_ = s.replyTo(rv, &wire.ErrMsg{Code: wire.CodeProtocol,
				Text: fmt.Sprintf("wire v%d not enabled on this server (max v%d)", ver, maxVer)})
			return
		}
		if ver >= wire.V3 && !s.pipelined.Swap(true) {
			s.srv.ctr.PipelinedSessions.Add(1)
		}
		if v := s.inflight.Add(1); v > hwm {
			hwm = v
		}
		if p, ok := m.(*wire.Ping); ok && ver >= wire.V3 {
			if s.replyTo(req, &wire.Pong{Nonce: p.Nonce}) != nil {
				return
			}
			continue
		}
		select {
		case reqs <- req:
		case <-s.ctx.Done():
			return
		}
	}
}

// writeLoop owns conn writes: every wakeup drains the whole outbound
// reply queue into one flush. On session cancellation it performs one
// final flush — still bounded by the write deadline — so terminal ERR
// replies and drain notices reach clients that are still reading.
func (s *session) writeLoop() {
	defer close(s.writerDone)
	for {
		select {
		case <-s.outWake:
			if err := s.flushOut(); err != nil {
				s.noteWriteError(err)
				return
			}
		case <-s.ctx.Done():
			if err := s.flushOut(); err != nil {
				s.noteWriteError(err)
			}
			return
		}
	}
}

// flushOut swaps out the queued replies and writes them with a single
// writev-style net.Buffers write under the write deadline. Batching does
// not weaken the slow-client defense: the deadline covers the whole
// coalesced write, and the bytes a batch carries are exactly the replies
// the old one-write-per-reply path would have written under N deadlines —
// a client that cannot drain one batched write within WriteTimeout could
// not have drained the same bytes unbatched either, and is killed the
// same way.
func (s *session) flushOut() error {
	s.outMu.Lock()
	q := s.outQ
	s.outQ = nil
	s.outMu.Unlock()
	if len(q) == 0 {
		return nil
	}
	release := func() {
		for _, b := range q {
			wire.PutBuf(b)
		}
		s.inflight.Add(-int64(len(q)))
		for range q {
			<-s.outSem
		}
	}
	if err := s.conn.SetWriteDeadline(timeNow().Add(s.srv.cfg.WriteTimeout)); err != nil {
		release()
		return err
	}
	var total int64
	var err error
	if len(q) == 1 {
		total = int64(len(*q[0]))
		_, err = s.conn.Write(*q[0])
	} else {
		bufs := s.wbufs[:0]
		for _, b := range q {
			total += int64(len(*b))
			bufs = append(bufs, *b)
		}
		s.wbufs = bufs
		_, err = bufs.WriteTo(s.conn)
		clear(s.wbufs) // drop references into pooled buffers
		s.wbufs = s.wbufs[:0]
	}
	release()
	if err != nil {
		return err
	}
	s.srv.ctr.BytesOut.Add(total)
	s.srv.ctr.ResponseFlushes.Add(1)
	s.srv.ctr.ResponsesFlushed.Add(int64(len(q)))
	return nil
}

// noteWriteError classifies a flush failure (deadline expiry = slow
// client), cancels the session and discards any replies queued after the
// failed flush.
func (s *session) noteWriteError(err error) {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		s.srv.ctr.SlowClientKills.Add(1)
		s.srv.logf("session %s: write deadline exceeded, killing slow client", s.conn.RemoteAddr())
	}
	s.cancel()
	s.outMu.Lock()
	q := s.outQ
	s.outQ = nil
	s.outMu.Unlock()
	for _, b := range q {
		wire.PutBuf(b)
	}
	s.inflight.Add(-int64(len(q)))
	for range q {
		<-s.outSem
	}
}

// replyTo frames m as the reply to req — tagged at the request's tag for
// v3 requests, untagged at the request's version otherwise, with error
// codes degraded to the version's code space — and queues it for the
// writer. It blocks when SessionInflight replies are already queued
// (bounded outbound buffering; the writer drains under its deadline).
func (s *session) replyTo(req request, m wire.Message) error {
	// A dead session must refuse new replies deterministically — once the
	// writer has killed it the semaphore may have free slots again, and
	// the select below would enqueue onto a queue nobody flushes.
	if err := s.ctx.Err(); err != nil {
		return err
	}
	select {
	case s.outSem <- struct{}{}:
	case <-s.ctx.Done():
		return s.ctx.Err()
	}
	buf := wire.GetBuf()
	var out []byte
	var err error
	if req.ver >= wire.V3 {
		out, err = wire.AppendTagged((*buf)[:0], req.ver, req.tag, m)
	} else {
		if em, ok := m.(*wire.ErrMsg); ok {
			if mapped := wire.CodeForVersion(em.Code, req.ver); mapped != em.Code {
				m = &wire.ErrMsg{Code: mapped, Text: em.Text}
			}
		}
		out, err = wire.AppendCompat((*buf)[:0], req.ver, m)
	}
	if err != nil {
		// Encoding failures are server bugs (oversized schema); drop the
		// session rather than desync the stream.
		wire.PutBuf(buf)
		<-s.outSem
		s.srv.logf("session %s: encode %s: %v", s.conn.RemoteAddr(), m.Kind(), err)
		return errSessionEnd
	}
	*buf = out
	s.outMu.Lock()
	s.outQ = append(s.outQ, buf)
	s.outMu.Unlock()
	select {
	case s.outWake <- struct{}{}:
	default:
	}
	return nil
}

// handshake requires the first frame to be HELLO and answers with the
// manager's transaction-set schema.
func (s *session) handshake(reqs <-chan request) error {
	select {
	case <-s.ctx.Done():
		return s.ctx.Err()
	case req := <-reqs:
		if _, ok := req.m.(*wire.Hello); !ok {
			_ = s.replyTo(req, &wire.ErrMsg{Code: wire.CodeProtocol,
				Text: fmt.Sprintf("expected HELLO, got %s", req.m.Kind())})
			return errSessionEnd
		}
		return s.replyTo(req, schemaOf(s.srv.mgr.Set(), s.srv.cfg.MaxWireVersion))
	}
}

// handle processes one request. The session-state contract kept here:
// every reply to BEGIN is BEGIN_OK or ERR; every ERR reply to
// READ/WRITE/COMMIT also ends the live transaction, so after any ERR the
// client knows it holds nothing. Pipelined requests are executed strictly
// in arrival order, so a client may speculate (send BEGIN+steps+COMMIT in
// one flush): if BEGIN fails, the trailing steps each draw the
// "outside a transaction" CodeState reply — expected fallout, not drift.
func (s *session) handle(req request) error {
	switch m := req.m.(type) {
	case *wire.Ping:
		return s.replyTo(req, &wire.Pong{Nonce: m.Nonce})
	case *wire.Begin:
		if m.ReadOnly {
			return s.handleBeginRO(req)
		}
		return s.handleBegin(req, m)
	case *wire.Read:
		if s.lt == nil {
			return s.replyTo(req, &wire.ErrMsg{Code: wire.CodeState, Text: "READ outside a transaction"})
		}
		v, err := s.lt.tx.Read(s.lt.ctx, rt.Item(int32(m.Item)))
		if err != nil {
			return s.txFailed(req, "READ", err)
		}
		return s.replyTo(req, &wire.ReadOK{Value: int64(v)})
	case *wire.Write:
		if s.lt == nil {
			return s.replyTo(req, &wire.ErrMsg{Code: wire.CodeState, Text: "WRITE outside a transaction"})
		}
		if err := s.lt.tx.Write(s.lt.ctx, rt.Item(int32(m.Item)), db.Value(m.Value)); err != nil {
			return s.txFailed(req, "WRITE", err)
		}
		return s.replyTo(req, &wire.WriteOK{})
	case *wire.Commit:
		if s.lt == nil {
			return s.replyTo(req, &wire.ErrMsg{Code: wire.CodeState, Text: "COMMIT outside a transaction"})
		}
		if err := s.lt.tx.Commit(s.lt.ctx); err != nil {
			return s.txFailed(req, "COMMIT", err)
		}
		s.clearTx()
		return s.replyTo(req, &wire.CommitOK{})
	case *wire.Abort:
		if s.lt == nil {
			return s.replyTo(req, &wire.ErrMsg{Code: wire.CodeState, Text: "ABORT outside a transaction"})
		}
		s.lt.tx.Abort()
		s.clearTx()
		return s.replyTo(req, &wire.AbortOK{})
	case *wire.Hello:
		_ = s.replyTo(req, &wire.ErrMsg{Code: wire.CodeProtocol, Text: "duplicate HELLO"})
		return errSessionEnd
	default:
		_ = s.replyTo(req, &wire.ErrMsg{Code: wire.CodeProtocol,
			Text: fmt.Sprintf("unexpected %s from client", req.m.Kind())})
		return errSessionEnd
	}
}

// roIDFlag tags a BEGIN_OK id as coming from the read-only sequence
// namespace, which is disjoint from update-transaction job ids.
const roIDFlag = uint64(1) << 63

// handleBeginRO admits a declared read-only snapshot transaction. It
// bypasses the admission shards entirely — no queue wait, no shed or
// infeasibility eligibility, no pending accounting — because BeginReadOnly
// never blocks and takes no locks: admission control exists to ration the
// lock manager, and this path never touches it. The template name and any
// deadline budget on the BEGIN are ignored; a snapshot transaction has no
// template slot and cannot be late in admission.
func (s *session) handleBeginRO(req request) error {
	if s.lt != nil {
		return s.replyTo(req, &wire.ErrMsg{Code: wire.CodeState, Text: "BEGIN with a transaction already live"})
	}
	if s.srv.draining.Load() {
		return s.replyTo(req, &wire.ErrMsg{Code: wire.CodeDraining, Text: "server draining"})
	}
	tx, err := s.srv.mgr.BeginReadOnly(s.ctx)
	if err != nil {
		return s.replyTo(req, &wire.ErrMsg{Code: codeOf(err), Text: "BEGIN: " + err.Error()})
	}
	s.armTx(tx, time.Time{})
	s.srv.ctr.ROAccepted.Add(1)
	return s.replyTo(req, &wire.BeginOK{ID: roIDFlag | uint64(tx.ID())})
}

// armTx installs a freshly admitted transaction: a per-transaction context
// carries the watchdog's force-abort authority, and publishing through cur
// makes the transaction visible to the watchdog and Drain.
func (s *session) armTx(tx txnHandle, deadline time.Time) {
	ctx, cancel := context.WithCancel(s.ctx)
	lt := &liveTx{tx: tx, ctx: ctx, cancel: cancel, start: timeNow(), deadline: deadline}
	s.lt = lt
	s.cur.Store(lt)
}

// txFailed maps a manager error to an ERR reply and ends the live
// transaction (Abort is idempotent, so this is safe whether the manager
// already tore it down or the failure was a validation rejection that left
// it live). A watchdog force-abort surfaces as ErrCancelled from the
// per-transaction context; the tripped flag distinguishes it from a dying
// session so the client sees a retryable CodeDeadline and the session
// itself survives. If the session context is dead, the transaction is kept
// for cleanup to account as an auto-abort instead.
func (s *session) txFailed(req request, op string, err error) error {
	if s.ctx.Err() != nil {
		return s.ctx.Err()
	}
	tripped := s.lt.tripped.Load()
	s.lt.tx.Abort()
	s.clearTx()
	if tripped {
		return s.replyTo(req, &wire.ErrMsg{Code: wire.CodeDeadline,
			Text: op + ": force-aborted by stuck-transaction watchdog: " + err.Error()})
	}
	return s.replyTo(req, &wire.ErrMsg{Code: codeOf(err), Text: op + ": " + err.Error()})
}

func (s *session) clearTx() {
	s.lt.cancel()
	s.lt = nil
	s.cur.Store(nil)
}

// cleanup tears the session down: cancel (stops the reader and any parked
// manager call), auto-abort a still-live transaction, let the writer
// finish its final deadline-bounded flush, close the socket.
func (s *session) cleanup() {
	s.cancel()
	if s.lt != nil {
		s.lt.tx.Abort()
		s.clearTx()
		if s.srv.draining.Load() {
			s.srv.ctr.DrainAborted.Add(1)
		} else {
			s.srv.ctr.AutoAborted.Add(1)
		}
	}
	<-s.writerDone
	_ = s.conn.Close()
	s.srv.removeSession(s)
}

// codeOf maps manager errors onto wire error codes. Anything that is not a
// manager lifecycle error is a request the declared read/write sets forbid
// — the client's mistake, hence CodeProtocol.
func codeOf(err error) wire.ErrorCode {
	switch {
	case errors.Is(err, errShed):
		return wire.CodeShed
	case errors.Is(err, db.ErrSnapshotEvicted):
		// The snapshot pinned a version the chain bound dropped; a fresh
		// BEGIN gets a fresh snapshot, so this is retryable like a
		// sacrifice.
		return wire.CodeAborted
	case errors.Is(err, rtm.ErrAborted):
		return wire.CodeAborted
	case errors.Is(err, rtm.ErrDeadlineMissed):
		return wire.CodeDeadline
	case errors.Is(err, rtm.ErrCancelled):
		return wire.CodeCancelled
	case errors.Is(err, rtm.ErrClosed):
		return wire.CodeState
	default:
		return wire.CodeProtocol
	}
}

// schemaOf renders the manager's transaction set as the HELLO_OK schema.
// proto advertises the highest wire version the server will speak on this
// connection; a client pipelines only when proto ≥ 3.
func schemaOf(set *txn.Set, proto uint8) *wire.HelloOK {
	h := &wire.HelloOK{Proto: proto, Set: set.Name}
	for _, tmpl := range set.Templates {
		ti := wire.TemplateInfo{Name: tmpl.Name, Priority: int32(tmpl.Priority)}
		for _, st := range tmpl.Steps {
			si := wire.StepInfo{Op: wire.OpCompute, Item: wire.NoItem, Dur: uint32(st.Dur)}
			switch st.Kind {
			case txn.ReadStep:
				si.Op, si.Item = wire.OpRead, uint32(st.Item)
			case txn.WriteStep:
				si.Op, si.Item = wire.OpWrite, uint32(st.Item)
			}
			ti.Steps = append(ti.Steps, si)
		}
		h.Templates = append(h.Templates, ti)
	}
	return h
}
