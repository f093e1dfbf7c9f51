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

// liveTx is the state of one live transaction on a session, and the
// context.Context its manager calls run under: the session's, plus a
// cancellation the watchdog can aim at this transaction alone — cancel
// unparks it, Abort releases its locks — without tearing down the session.
// The exec goroutine owns it; the watchdog and Drain observe it through the
// session's cur pointer. A manager call looks at Err on the way in and asks
// for Done only when it is about to park (rtm.park, rtm.parkBegin), so the
// cancellable child of the session context is built then; a transaction
// that never parks never has one.
type liveTx struct {
	context.Context                    // the session's
	tx              *rtm.Txn           //pcpda:guardedby immutable
	start           time.Time          //pcpda:guardedby immutable
	deadline        time.Time          //pcpda:guardedby immutable — firm deadline from BEGIN or TXN; zero = none
	made            *atomic.Int64      //pcpda:guardedby immutable — Server.txCtxMade
	tripped         atomic.Bool        // set once, by the watchdog, before it cancels: Err reports it
	mu              sync.Mutex         // orders Done's first call against cancel
	child           context.Context    //pcpda:guardedby mu — the session context's cancellable child, once a call has parked
	stop            context.CancelFunc //pcpda:guardedby mu
}

// Done builds the child on first use. A trip that came first is not lost:
// the child is born cancelled.
func (lt *liveTx) Done() <-chan struct{} {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	if lt.child == nil {
		lt.child, lt.stop = context.WithCancel(lt.Context)
		lt.made.Add(1)
		if lt.tripped.Load() {
			lt.stop()
		}
	}
	return lt.child.Done()
}

// Err runs under the manager mutex on every manager operation: it polls the
// session context's Done channel (an atomic load), not its Err (a mutex).
func (lt *liveTx) Err() error {
	if lt.tripped.Load() {
		return context.Canceled
	}
	select {
	case <-lt.Context.Done():
		return lt.Context.Err()
	default:
		return nil
	}
}

// cancel cancels the child, if a call ever parked under one: the watchdog's
// force-abort (which has set tripped, so a later Done sees it) and clearTx's
// release of what the session context would otherwise keep.
func (lt *liveTx) cancel() {
	lt.mu.Lock()
	if lt.stop != nil {
		lt.stop()
	}
	lt.mu.Unlock()
}

// request is one decoded frame and the client-chosen tag its reply must
// carry.
type request struct {
	m   wire.Message
	tag uint32
}

// session is the per-connection state machine. Three goroutines exist per
// session:
//
//   - run (exec) owns the transaction handle and all manager calls; it
//     takes the queued requests a batch at a time and executes them in
//     arrival order (FIFO execution, even when pipelined), encoding each
//     reply onto the outbound buffer;
//   - readLoop owns conn reads: it decodes frames out of one buffered
//     reader (a burst is one read on the socket), appends each to the
//     inbound queue (a full queue blocks the reader, which is TCP
//     backpressure to a pipelining client), and cancels the session
//     context the moment the connection dies;
//   - writeLoop owns conn writes: every wakeup sends whatever the
//     outbound buffer holds with one write, under the write deadline (the
//     slow-client defense — see flushOut).
//
// They share nothing mutable except the context, that queue and that
// buffer; disconnects propagate as a context cancellation, never as
// shared state.
type session struct {
	srv    *Server            //pcpda:guardedby immutable
	conn   net.Conn           //pcpda:guardedby immutable
	ctx    context.Context    //pcpda:guardedby immutable
	cancel context.CancelFunc //pcpda:guardedby immutable

	greeted bool                   //pcpda:guardedby none — HELLO has been answered; owned by run
	lt      *liveTx                //pcpda:guardedby none — live transaction; owned by run
	cur     atomic.Pointer[liveTx] // mirror of lt, read by Drain and the watchdog
	txnOK   wire.TxnOK             //pcpda:guardedby none — handleTxn's reply, Reads reused; owned by run

	// Inbound (readLoop → run): the reader appends, exec takes the slice
	// whole. inOpen — queued plus the unexecuted rest of the batch exec
	// holds — never exceeds SessionInflight: only the reader adds to it.
	inMu    sync.Mutex
	inQ     []request     //pcpda:guardedby inMu — decoded requests in arrival order
	inOpen  atomic.Int64  // decoded and not yet executed
	inWake  chan struct{} // buffered(1); reader → exec when inQ turns non-empty
	inSpace chan struct{} // buffered(1); exec → reader when a full table gains room

	// Outbound (replyTo → writeLoop): replies are encoded back to back onto
	// outBuf, which the writer swaps for its spare and sends with one write.
	// outN never exceeds SessionInflight.
	outMu      sync.Mutex
	outBuf     []byte        //pcpda:guardedby outMu — encoded replies awaiting the writer
	outN       int           //pcpda:guardedby outMu — replies in outBuf or in the write in progress
	outSpare   []byte        //pcpda:guardedby none — the previous flush's buffer, owned by writeLoop
	outWake    chan struct{} // buffered(1); replier → writer when outBuf turns non-empty
	outSpace   chan struct{} // buffered(1); writer → a replier waiting below the bound, who passes it on
	writerDone chan struct{}

	inflight atomic.Int64 // requests read minus replies flushed
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

// nudge leaves a wakeup token on a buffered(1) signal channel without
// blocking; a token already there will do, receivers recheck their condition.
func nudge(ch chan<- struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// errSessionEnd tells run to exit after a reply that terminates the
// conversation (protocol violation or encode failure).
var errSessionEnd = errors.New("session end")

func (s *session) run() {
	readerDone := make(chan struct{})
	go s.writeLoop()
	go s.readLoop(readerDone)
	// LIFO: cleanup closes the connection first, which unblocks a reader
	// stuck mid-ReadAny; only then wait for it to exit.
	defer func() { <-readerDone }()
	defer s.cleanup()

	bound := int64(s.srv.cfg.SessionInflight)
	var batch []request
	for {
		if batch = s.nextBatch(batch); batch == nil {
			return
		}
		for _, req := range batch {
			// A dead session executes nothing more; cleanup aborts what is live.
			select {
			case <-s.ctx.Done():
				return
			default:
			}
			err := s.handle(req)
			if s.inOpen.Add(-1) == bound-1 {
				nudge(s.inSpace)
			}
			if err != nil {
				if !errors.Is(err, errSessionEnd) && !errors.Is(err, context.Canceled) {
					s.srv.logf("session %s: %v", s.conn.RemoteAddr(), err)
				}
				return
			}
		}
	}
}

// nextBatch blocks until the reader has queued requests and takes them
// all, leaving spare (the previous batch) as the queue's backing array. It
// returns nil once the session is over.
func (s *session) nextBatch(spare []request) []request {
	for {
		s.inMu.Lock()
		batch := s.inQ
		s.inQ = spare[:0]
		s.inMu.Unlock()
		if len(batch) > 0 {
			return batch
		}
		spare = batch
		select {
		case <-s.inWake:
		case <-s.ctx.Done():
			return nil
		}
	}
}

// enqueue hands a request to exec the moment it is decoded, waiting while
// SessionInflight are decoded and not yet executed; false means the
// session ended first.
func (s *session) enqueue(req request) bool {
	for s.inOpen.Load() >= int64(s.srv.cfg.SessionInflight) {
		select {
		case <-s.inSpace:
		case <-s.ctx.Done():
			return false
		}
	}
	s.inOpen.Add(1)
	s.inMu.Lock()
	s.inQ = append(s.inQ, req)
	first := len(s.inQ) == 1
	s.inMu.Unlock()
	if first {
		nudge(s.inWake)
	}
	return true
}

// readLoop decodes frames off the connection and feeds run. Any read
// failure — disconnect, idle timeout, malformed frame — cancels the
// session context, which unparks run from whatever manager call it is
// blocked in; a frame that is not this protocol's (another framing's
// version byte, an unknown kind, a payload that does not parse) first draws
// one CodeProtocol ERR, at the frame's tag when its header got that far,
// which the writer's final flush delivers. PINGs are answered here
// directly, out of order: a liveness probe must not wait behind a
// transaction parked in admission or on a lock.
func (s *session) readLoop(done chan<- struct{}) {
	defer close(done)
	defer s.cancel()
	br := bufio.NewReader(connReader{conn: s.conn, idle: s.srv.cfg.IdleTimeout, n: &s.srv.ctr.BytesIn})
	var scratch []byte
	var hwm int64
	defer func() { metrics.MaxInt64(&s.srv.ctr.InflightHWM, hwm) }()
	pipelined := false
	for {
		m, _, tag, sc, err := wire.ReadAny(br, scratch)
		if err != nil {
			if errors.Is(err, wire.ErrMalformed) || errors.Is(err, wire.ErrTooLarge) {
				_ = s.replyTo(request{tag: tag}, &wire.ErrMsg{Code: wire.CodeProtocol, Text: err.Error()})
			}
			return
		}
		scratch = sc
		if cap(scratch) > maxScratch {
			scratch = nil
		}
		// More behind a frame in the same read: the peer did not wait for
		// this one's reply before sending the next.
		if !pipelined && br.Buffered() > 0 {
			pipelined = true
			s.srv.ctr.PipelinedSessions.Add(1)
		}
		req := request{m: m, tag: tag}
		if v := s.inflight.Add(1); v > hwm {
			hwm = v
		}
		if p, ok := m.(*wire.Ping); ok {
			if s.replyTo(req, &wire.Pong{Nonce: p.Nonce}) != nil {
				return
			}
			continue
		}
		if !s.enqueue(req) {
			return
		}
	}
}

// writeLoop owns conn writes: every wakeup sends the whole outbound
// buffer in one flush. On session cancellation it performs one final
// flush — still bounded by the write deadline — so terminal ERR replies
// and drain notices reach clients that are still reading. A failed flush
// (deadline expiry = slow client) cancels the session; replies queued
// behind it die with it, repliers waiting for room leave by the context.
func (s *session) writeLoop() {
	defer close(s.writerDone)
	for last := false; !last; {
		select {
		case <-s.outWake:
		case <-s.ctx.Done():
			last = true
		}
		if err := s.flushOut(); err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				s.srv.ctr.SlowClientKills.Add(1)
				s.srv.logf("session %s: write deadline exceeded, killing slow client", s.conn.RemoteAddr())
			}
			s.cancel()
			return
		}
	}
}

// flushOut swaps the outbound buffer for the spare and sends it with a
// single write under the write deadline. Batching does not weaken the
// slow-client defense: a client that cannot drain one batched write within
// WriteTimeout could not have drained the same bytes under one deadline
// per reply either, and is killed the same way. The replies count against
// SessionInflight until the write returns, so what a non-reading peer can
// strand stays bounded.
func (s *session) flushOut() error {
	s.outMu.Lock()
	buf, n := s.outBuf, s.outN // no write is in progress, so all outN replies are in buf
	s.outBuf = s.outSpare[:0]
	s.outMu.Unlock()
	s.outSpare = buf
	if n == 0 {
		return nil
	}
	err := s.conn.SetWriteDeadline(timeNow().Add(s.srv.cfg.WriteTimeout))
	if err == nil {
		_, err = s.conn.Write(buf)
	}
	if cap(buf) > maxScratch {
		s.outSpare = nil
	}
	s.outMu.Lock()
	s.outN -= n
	s.outMu.Unlock()
	s.inflight.Add(-int64(n))
	nudge(s.outSpace)
	if err != nil {
		return err
	}
	s.srv.ctr.BytesOut.Add(int64(len(buf)))
	s.srv.ctr.ResponseFlushes.Add(1)
	s.srv.ctr.ResponsesFlushed.Add(int64(n))
	return nil
}

// replyTo frames m as the reply to req — the request's tag on it —
// straight onto the outbound buffer, and wakes the writer if the buffer was
// empty. It blocks while SessionInflight replies are queued or being
// written.
func (s *session) replyTo(req request, m wire.Message) error {
	// A dead session must refuse new replies deterministically — once the
	// writer has killed it there may be room under the bound again, and the
	// reply would land in a buffer nobody flushes.
	select {
	case <-s.ctx.Done():
		return s.ctx.Err()
	default:
	}
	waited := false
	s.outMu.Lock()
	for s.outN >= s.srv.cfg.SessionInflight {
		s.outMu.Unlock()
		waited = true
		select {
		case <-s.outSpace:
		case <-s.ctx.Done():
			return s.ctx.Err()
		}
		s.outMu.Lock()
	}
	out, err := wire.AppendTagged(s.outBuf, wire.Version, req.tag, m)
	if err != nil {
		// Encoding failures are server bugs (oversized schema); drop the
		// session rather than desync the stream.
		s.outMu.Unlock()
		s.srv.logf("session %s: encode %s: %v", s.conn.RemoteAddr(), m.Kind(), err)
		return errSessionEnd
	}
	wake := len(s.outBuf) == 0
	s.outBuf = out
	s.outN++
	s.outMu.Unlock()
	if wake {
		nudge(s.outWake)
	}
	if waited {
		nudge(s.outSpace) // the reader (PONGs) and exec can both be waiting on the one signal
	}
	return nil
}

// handle processes one request; the session's first must be HELLO and is
// answered with the manager's transaction-set schema. The session-state
// contract kept here: a TXN is answered exactly once, with TXN_OK or the
// ERR that is its outcome, and leaves no transaction behind either way;
// every reply to BEGIN is BEGIN_OK or ERR; every ERR reply to
// READ/WRITE/COMMIT also ends the live transaction, so after any ERR the
// client knows it holds nothing. Requests are executed strictly in arrival
// order, so a client may have several TXNs in flight and they serialize as
// sent; one that speculates with the per-step frames (BEGIN+steps+COMMIT
// in one flush) sees, if BEGIN fails, the trailing steps each draw the
// "outside a transaction" CodeState reply — expected fallout, not drift.
func (s *session) handle(req request) error {
	if !s.greeted {
		s.greeted = true
		if _, ok := req.m.(*wire.Hello); !ok {
			_ = s.replyTo(req, &wire.ErrMsg{Code: wire.CodeProtocol,
				Text: fmt.Sprintf("expected HELLO, got %s", req.m.Kind())})
			return errSessionEnd
		}
		return s.replyTo(req, schemaOf(s.srv.mgr.Set()))
	}
	switch req.m.(type) {
	case *wire.Read, *wire.Write, *wire.Commit, *wire.Abort:
		if s.lt == nil {
			return s.replyTo(req, &wire.ErrMsg{Code: wire.CodeState, Text: req.m.Kind().String() + " outside a transaction"})
		}
	}
	switch m := req.m.(type) {
	case *wire.Txn:
		return s.handleTxn(req, m)
	case *wire.Begin:
		if m.ReadOnly {
			return s.replyTo(req, refuse(wire.CodeProtocol, "BEGIN: a read-only snapshot transaction is one TXN frame"))
		}
		refusal, err := s.begin(m.Name, m.Deadline)
		if err != nil {
			return err
		}
		if refusal != nil {
			return s.replyTo(req, refusal)
		}
		return s.replyTo(req, &wire.BeginOK{ID: uint64(s.lt.tx.ID())})
	case *wire.Read:
		v, err := s.lt.tx.Read(s.lt, rt.Item(int32(m.Item)))
		if err != nil {
			return s.txFailed(req, "READ", err)
		}
		return s.replyTo(req, &wire.ReadOK{Value: int64(v)})
	case *wire.Write:
		if err := s.lt.tx.Write(s.lt, rt.Item(int32(m.Item)), db.Value(m.Value)); err != nil {
			return s.txFailed(req, "WRITE", err)
		}
		return s.replyTo(req, &wire.WriteOK{})
	case *wire.Commit:
		if err := s.lt.tx.Commit(s.lt); err != nil {
			return s.txFailed(req, "COMMIT", err)
		}
		s.clearTx()
		return s.replyTo(req, &wire.CommitOK{})
	case *wire.Abort:
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

// handleTxn runs a whole transaction from its one frame: the admission a
// BEGIN gets (so the watchdog and Drain see it live from the same moment),
// then every operation in order under the transaction's context, then
// commit, then the one reply. A failure anywhere is the transaction's
// outcome and goes through txFailed like a failed step's; a TXN that finds
// an interactive transaction live is refused by begin and leaves it alone.
func (s *session) handleTxn(req request, m *wire.Txn) error {
	if m.ReadOnly {
		return s.handleRO(req, m)
	}
	refusal, err := s.begin(m.Name, m.Deadline)
	if err != nil {
		return err
	}
	if refusal != nil {
		return s.replyTo(req, refusal)
	}
	lt := s.lt
	reads := s.txnOK.Reads[:0]
	for _, op := range m.Ops {
		item := rt.Item(int32(op.Item))
		if op.Op == wire.OpRead {
			v, err := lt.tx.Read(lt, item)
			if err != nil {
				return s.txFailed(req, "READ", err)
			}
			reads = append(reads, int64(v))
		} else if err := lt.tx.Write(lt, item, db.Value(op.Value)); err != nil { // the decoder admits reads and writes only
			return s.txFailed(req, "WRITE", err)
		}
	}
	if err := lt.tx.Commit(lt); err != nil {
		return s.txFailed(req, "COMMIT", err)
	}
	s.clearTx()
	s.txnOK = wire.TxnOK{ID: uint64(lt.tx.ID()), Reads: reads} // replyTo encodes before it returns
	return s.replyTo(req, &s.txnOK)
}

// handleRO runs a declared read-only snapshot transaction from its one
// frame: begin, read, commit and reply, without it ever becoming the
// session's live transaction. It bypasses admission entirely — no queue
// wait, no shed or infeasibility eligibility, no pending accounting —
// because BeginReadOnly never blocks and takes no locks: admission control
// exists to ration the lock manager, and this path never touches it. The
// template name and any deadline budget are ignored; a snapshot
// transaction has no template slot and cannot be late in admission. A
// write is refused before a snapshot is taken.
func (s *session) handleRO(req request, m *wire.Txn) error {
	if refusal := s.busy(); refusal != nil {
		return s.replyTo(req, refusal)
	}
	for _, op := range m.Ops {
		if op.Op != wire.OpRead {
			return s.replyTo(req, refuse(wire.CodeProtocol, "WRITE in a read-only TXN"))
		}
	}
	// The snapshot handle finishes itself on every error Read returns, so
	// a failure leaves nothing to abort.
	failed := func(op string, err error) error {
		if s.ctx.Err() != nil {
			return s.ctx.Err()
		}
		return s.replyTo(req, refuse(codeOf(err), op+": "+err.Error()))
	}
	tx, err := s.srv.mgr.BeginReadOnly(s.ctx)
	if err != nil {
		return failed("BEGIN", err)
	}
	s.srv.ctr.ROAccepted.Add(1)
	reads := s.txnOK.Reads[:0]
	for _, op := range m.Ops {
		v, err := tx.Read(s.ctx, rt.Item(int32(op.Item)))
		if err != nil {
			return failed("READ", err)
		}
		reads = append(reads, int64(v))
	}
	if err := tx.Commit(s.ctx); err != nil {
		return failed("COMMIT", err)
	}
	s.txnOK = wire.TxnOK{ID: roIDFlag | uint64(tx.ID()), Reads: reads} // replyTo encodes before it returns
	return s.replyTo(req, &s.txnOK)
}

// roIDFlag tags a TXN_OK id as coming from the read-only
// sequence namespace, which is disjoint from update-transaction job ids.
const roIDFlag = uint64(1) << 63

// refuse builds the ERR that turns a BEGIN or a TXN down.
func refuse(code wire.ErrorCode, text string) *wire.ErrMsg {
	return &wire.ErrMsg{Code: code, Text: text}
}

// armTx installs a freshly admitted transaction: the liveTx is the context
// its manager calls run under, and publishing it through cur makes the
// transaction visible to the watchdog and Drain.
func (s *session) armTx(tx *rtm.Txn, deadline time.Time) {
	lt := &liveTx{Context: s.ctx, tx: tx, start: timeNow(), deadline: deadline, made: &s.srv.txCtxMade}
	s.lt = lt
	s.cur.Store(lt)
}

// txFailed maps a manager error to an ERR reply and ends the live
// transaction (Abort is idempotent, so this is safe whether the manager
// already tore it down or the failure was a validation rejection that left
// it live). A watchdog force-abort surfaces as ErrCancelled from the
// transaction's context; the tripped flag distinguishes it from a dying
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
	case errors.Is(err, db.ErrSnapshotEvicted):
		// The snapshot pinned a version the chain bound dropped; a fresh
		// BEGIN gets a fresh snapshot, so this is retryable like a
		// sacrifice.
		return wire.CodeAborted
	case errors.Is(err, rtm.ErrAborted):
		return wire.CodeAborted
	case errors.Is(err, rtm.ErrCancelled):
		return wire.CodeCancelled
	case errors.Is(err, rtm.ErrClosed):
		return wire.CodeState
	default:
		return wire.CodeProtocol
	}
}

// schemaOf renders the manager's transaction set as the HELLO_OK schema.
func schemaOf(set *txn.Set) *wire.HelloOK {
	h := &wire.HelloOK{Set: set.Name}
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
