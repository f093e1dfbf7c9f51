package client

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"pcpda/internal/wire"
)

// PipeConn is the protocol connection: many requests in flight at once,
// each carrying a client-chosen tag, with a demux goroutine matching
// out-of-order replies back to their callers. A transaction travels whole —
// one TXN frame out, one TXN_OK or ERR back (SubmitTxn, RunTxn and their
// read-only forms) — or a step at a time, when its writes depend on its
// reads: Begin, Read, Write, Commit and Abort each Submit one request and
// Wait for its reply. Every method, and Wait on the handles they return, is
// single-owner — one goroutine drives the connection — while the demux
// goroutine runs internally; the two meet in the slot table, on atomics,
// and share the deadline books and the sticky error under mu. Submitted
// frames leave in one write when the owner is about to block inside
// PipeConn (a Wait whose outcome is not there yet, a submit into a full
// window); before sleeping elsewhere, Flush.
type PipeConn struct {
	c       net.Conn      //pcpda:guardedby immutable
	br      *bufio.Reader //pcpda:guardedby none — every byte read off c: the handshake's, then owned by demux
	schema  *wire.HelloOK //pcpda:guardedby immutable
	timeout time.Duration //pcpda:guardedby immutable

	// Owned by the submitting goroutine (never touched by demux).
	wbuf   []byte   //pcpda:guardedby none — encoded-but-unflushed frames
	unsent int      //pcpda:guardedby none — frames in wbuf
	cursor int      //pcpda:guardedby none — the slot the next submit tries first
	gens   []uint16 //pcpda:guardedby none — per slot, the generation its next claim carries
	txn    wire.Txn //pcpda:guardedby none — the TXN being encoded; Ops is reused from one to the next

	// The slot table: a slot is free (nil) or holds the future of the one
	// unanswered request whose tag names it. The owner claims, the demux
	// frees; a request costs no channel, map entry or lock.
	slots   []atomic.Pointer[Pending] //pcpda:guardedby immutable — the slice; its elements are atomics
	waiting atomic.Pointer[Pending]   // what the owner is blocked on: a future, anyReply, or nil
	wake    chan struct{}             // buffered(1); demux → the owner that announced in waiting

	mu          sync.Mutex
	outstanding int       // flushed requests whose replies the demux has not yet booked
	armedAt     time.Time // when the read deadline was last pushed out
	err         error     // sticky; set once, before done closes
	done        chan struct{}
	closeOnce   sync.Once
}

// Pending is one submitted request and, once the demux has filled it in,
// its reply.
type Pending struct {
	p     *PipeConn    //pcpda:guardedby none — p, want and tag are set by submit before the slot store that publishes the future
	want  wire.Kind    //pcpda:guardedby none
	tag   uint32       //pcpda:guardedby none
	reply wire.Message //pcpda:guardedby none — written by the demux before done, read by Wait after it
	done  atomic.Bool
}

// anyReply is what a submit into a full window announces in waiting.
var anyReply = new(Pending)

// maxWindow is the most slots a tag can name: its low 16 bits are the slot
// index plus one — tag 0, the handshake's and an unasked ERR's, never names
// a request — and its high 16 the slot's generation, which makes a second
// reply to one request a desync instead of the next occupant's answer.
const maxWindow = 1<<16 - 1

// errPipeClosed is the sticky error of an explicitly closed PipeConn.
var errPipeClosed = errors.New("client: pipelined connection closed")

// DialPipelined connects, performs the HELLO handshake and starts the
// demux. window bounds the requests submitted and not yet answered (default
// 32, at most 65535) — a whole transaction is one request, so for SubmitTxn
// it is the number of transactions in flight; a submit into a full window
// flushes and waits for any reply, and an answered request counts for
// nothing whether or not its future is ever waited on. opTimeout bounds the
// handshake and, afterwards, the gap between consecutive replies while
// requests are outstanding. A server that turns the connection down does so
// with a typed ERR, which comes back as a *wire.RemoteError.
func DialPipelined(addr string, opTimeout time.Duration, window int) (*PipeConn, error) {
	if opTimeout <= 0 {
		opTimeout = 10 * time.Second
	}
	nc, err := net.DialTimeout("tcp", addr, opTimeout)
	if err != nil {
		return nil, fmt.Errorf("client: dial %s: %w", addr, err)
	}
	return handshakePipelined(nc, opTimeout, window)
}

// handshakePipelined is DialPipelined over an established connection,
// which it closes on failure. HELLO is the one request outside the window:
// it goes out at tag 0 and its reply is read here, before the demux exists.
// The buffered reader exists before the first byte is read and the demux
// takes it over, so whatever the server writes back-to-back with HELLO_OK
// is the demux's first frame, not stranded in a handshake's reader.
func handshakePipelined(nc net.Conn, opTimeout time.Duration, window int) (*PipeConn, error) {
	if window <= 0 {
		window = 32
	}
	window = min(window, maxWindow)
	p := &PipeConn{c: nc, br: bufio.NewReader(nc), timeout: opTimeout,
		gens: make([]uint16, window), slots: make([]atomic.Pointer[Pending], window),
		wake: make(chan struct{}, 1), done: make(chan struct{})}
	if err := p.hello(); err != nil {
		_ = nc.Close()
		return nil, err
	}
	go p.demux()
	return p, nil
}

// hello exchanges HELLO for the schema under one deadline. A server that
// turns the connection down answers with an ERR, whatever its tag.
func (p *PipeConn) hello() error {
	if err := p.c.SetDeadline(time.Now().Add(p.timeout)); err != nil {
		return err
	}
	frame, err := wire.AppendTagged(nil, wire.Version, 0, &wire.Hello{})
	if err != nil {
		return err
	}
	if _, err := p.c.Write(frame); err != nil {
		return fmt.Errorf("client: write HELLO: %w", err)
	}
	reply, _, tag, _, err := wire.ReadAny(p.br, nil)
	if err != nil {
		return fmt.Errorf("client: read reply to HELLO: %w", err)
	}
	if err := remoteError(reply); err != nil {
		return err
	}
	schema, isSchema := reply.(*wire.HelloOK)
	if !isSchema || tag != 0 {
		return fmt.Errorf("client: reply %s tagged %d to HELLO", reply.Kind(), tag)
	}
	p.schema = schema
	return nil
}

// Schema returns the transaction-set schema from the handshake.
func (p *PipeConn) Schema() *wire.HelloOK { return p.schema }

// Broken reports whether the connection suffered a failure and must not
// be reused.
func (p *PipeConn) Broken() bool { return p.errNow() != nil }

// Close tears the connection down; every unreplied request fails. A
// transaction left live server-side unwinds via the server's disconnect
// auto-abort, and one still parked in admission is abandoned (the server's
// claim protocol discards its grant).
func (p *PipeConn) Close() error {
	p.fail(errPipeClosed)
	return nil
}

// fail records the first error and closes done — which fails every
// unanswered future and wakes an owner blocked on one — and the socket,
// unblocking the demux read. Idempotent.
func (p *PipeConn) fail(err error) {
	p.closeOnce.Do(func() {
		p.mu.Lock()
		p.err = err
		close(p.done)
		p.mu.Unlock()
		_ = p.c.Close()
	})
}

// errNow returns the sticky error: non-nil once done is closed.
func (p *PipeConn) errNow() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// demux is the read side: it hands each reply to the future in the slot
// its tag names, in whatever order the server flushed them. The read
// deadline is managed against outstanding work — armed by Flush, pushed
// forward as replies arrive — so a server that goes silent
// mid-conversation fails the connection. The replies of one read are booked
// together, when the reader has run dry and the next read may block, and the
// rearm is throttled besides (an eighth of the timeout has to pass before
// the deadline moves) because deadline updates cost a runtime timer
// modification per call, which at pipelined reply rates is pure overhead; a
// stall is still detected at most timeout+timeout/8 late. A deadline that
// fires with nothing outstanding is not a failure — the connection is just
// idle — so it rearms far out and keeps reading.
func (p *PipeConn) demux() {
	var scratch []byte
	replied := 0 // replies delivered and not yet booked
	for {
		if replied > 0 && p.br.Buffered() == 0 {
			p.mu.Lock()
			if p.outstanding -= replied; p.outstanding > 0 {
				p.rearm()
			}
			p.mu.Unlock()
			replied = 0
		}
		m, _, tag, sc, err := wire.ReadAny(p.br, scratch)
		if err != nil {
			if p.idleTimeout(err, replied) {
				replied = 0
				continue
			}
			p.fail(fmt.Errorf("client: pipeline read: %w", err))
			return
		}
		scratch = sc
		slot := int(tag&maxWindow) - 1
		var f *Pending
		if slot >= 0 && slot < len(p.slots) {
			f = p.slots[slot].Load()
		}
		if f == nil || f.tag != tag {
			// No request in flight has this tag: the slot is free, beyond the
			// table, or on another generation. An ERR is the server ending the
			// conversation and saying why; anything else is a desync.
			err := remoteError(m)
			if err == nil {
				err = fmt.Errorf("client: reply %s with unknown tag %d", m.Kind(), tag)
			}
			p.fail(err)
			return
		}
		// Free the slot and publish done before looking at waiting: the owner
		// announces there before it looks again at either, so one of the two
		// sees the other (DESIGN.md §13).
		f.reply = m
		p.slots[slot].Store(nil)
		f.done.Store(true)
		if w := p.waiting.Load(); w == f || w == anyReply {
			select {
			case p.wake <- struct{}{}:
			default: // a token is there already; the owner rechecks
			}
		}
		replied++
	}
}

// rearm pushes the read deadline a timeout out from now, unless it was
// moved within the last eighth of one. Caller holds p.mu.
func (p *PipeConn) rearm() {
	if now := time.Now(); now.Sub(p.armedAt) > p.timeout/8 {
		p.armedAt = now
		_ = p.c.SetReadDeadline(now.Add(p.timeout))
	}
}

// idleTimeout reports whether a read error is a deadline firing on an
// idle connection (nothing outstanding once the replied replies are
// booked); if so it pushes the deadline far out so the blocked read can
// continue.
func (p *PipeConn) idleTimeout(err error, replied int) bool {
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.outstanding -= replied; p.outstanding > 0 || p.err != nil {
		return false
	}
	p.armedAt = time.Time{}
	_ = p.c.SetReadDeadline(time.Now().Add(24 * time.Hour))
	return true
}

// await blocks the owner until ready reports true or the connection fails
// (false). It flushes first — nothing stays unflushed while its owner
// blocks — and announces what it waits for before it looks again, so a
// reply delivered in between is either seen here or wakes it.
func (p *PipeConn) await(on *Pending, ready func() bool) bool {
	_ = p.Flush() // a failed flush fails the connection, which closes done
	p.waiting.Store(on)
	defer p.waiting.Store(nil)
	for !ready() {
		select {
		case <-p.wake:
		case <-p.done:
			return ready()
		}
	}
	return true
}

// claim returns a free slot, or -1 with the window full. It starts where
// the last claim left off: with replies in submission order that one is free.
func (p *PipeConn) claim() int {
	for i := range p.slots {
		if s := (p.cursor + i) % len(p.slots); p.slots[s].Load() == nil {
			return s
		}
	}
	return -1
}

// submit encodes m into the unflushed batch under a free slot's tag and
// leaves f, the future its caller is about to hand out, in that slot for
// the reply. When the window is exhausted it flushes and waits for a reply
// to free a slot; nothing reaches the server until a flush — that one, a
// Wait about to block, or the owner's own Flush — pushes the batch. A
// request that cannot be encoded leaves nothing behind: no bytes, no slot.
func (p *PipeConn) submit(f *Pending, m wire.Message) error {
	select {
	case <-p.done:
		return p.errNow()
	default:
	}
	slot := p.claim()
	if slot < 0 && !p.await(anyReply, func() bool { slot = p.claim(); return slot >= 0 }) {
		return p.errNow()
	}
	tag := uint32(slot+1) | uint32(p.gens[slot])<<16
	buf, err := wire.AppendTagged(p.wbuf, wire.Version, tag, m)
	if err != nil {
		return err
	}
	p.wbuf = buf
	p.unsent++
	p.gens[slot]++
	p.cursor = slot + 1
	f.p, f.want, f.tag = p, m.Kind()|0x80, tag // a success reply is the request's kind with the high bit set
	p.slots[slot].Store(f)
	return nil
}

// Submit encodes m into the unflushed batch and returns its Pending
// handle.
func (p *PipeConn) Submit(m wire.Message) (*Pending, error) {
	f := new(Pending)
	if err := p.submit(f, m); err != nil {
		return nil, err
	}
	return f, nil
}

// Flush writes every submitted-but-unflushed frame in one write; an owner
// needs it only before going to sleep outside PipeConn with requests
// submitted. The read deadline is armed before the write so a reply racing
// the flush can only extend it, never leave outstanding work undeadlined.
func (p *PipeConn) Flush() error {
	if p.unsent == 0 {
		return nil
	}
	p.mu.Lock()
	if err := p.err; err != nil {
		p.mu.Unlock()
		return err
	}
	p.outstanding += p.unsent
	p.rearm()
	p.mu.Unlock()
	p.unsent = 0
	buf := p.wbuf
	p.wbuf = p.wbuf[:0]
	err := p.c.SetWriteDeadline(time.Now().Add(p.timeout))
	if err == nil {
		_, err = p.c.Write(buf)
	}
	if err != nil {
		p.fail(fmt.Errorf("client: pipeline write: %w", err))
		return p.errNow()
	}
	return nil
}

// Wait blocks for the reply, flushing the unflushed batch first if it has
// to block — nothing stays unflushed while its owner blocks; like Submit it
// belongs to the connection's owner goroutine. ERR replies come back as
// *wire.RemoteError; a reply of an unexpected kind is a stream desync and
// kills the connection. The outcome stays in the future: a second Wait
// returns it again.
func (f *Pending) Wait() (wire.Message, error) {
	if !f.done.Load() && !f.p.await(f, f.done.Load) {
		return nil, f.p.errNow()
	}
	m := f.reply
	if err := remoteError(m); err != nil {
		return nil, err
	}
	if m.Kind() != f.want {
		f.p.fail(fmt.Errorf("client: reply %s, want %s", m.Kind(), f.want))
		return nil, f.p.errNow()
	}
	return m, nil
}

// step runs one request as a round trip: a Submit and a Wait, which
// flushes. Nothing of the owner's overlaps it.
func (p *PipeConn) step(m wire.Message) (wire.Message, error) {
	f, err := p.Submit(m)
	if err != nil {
		return nil, err
	}
	return f.Wait()
}

// Begin starts a transaction of the named type and returns its job id.
func (p *PipeConn) Begin(name string) (uint64, error) {
	return p.BeginBudget(name, 0)
}

// BeginBudget starts a transaction with a firm deadline budget: the server
// refuses it (CodeInfeasible) if its queue-wait estimate already breaks
// the budget, and its watchdog force-aborts the transaction if it is still
// live past budget+grace. budget <= 0 means no deadline.
func (p *PipeConn) BeginBudget(name string, budget time.Duration) (uint64, error) {
	reply, err := p.step(&wire.Begin{Name: name, Deadline: budgetMs(budget)})
	if err != nil {
		return 0, err
	}
	return reply.(*wire.BeginOK).ID, nil
}

// Read reads one item inside the live transaction.
func (p *PipeConn) Read(item uint32) (int64, error) {
	reply, err := p.step(&wire.Read{Item: item})
	if err != nil {
		return 0, err
	}
	return reply.(*wire.ReadOK).Value, nil
}

// Write writes one item inside the live transaction.
func (p *PipeConn) Write(item uint32, v int64) error {
	_, err := p.step(&wire.Write{Item: item, Value: v})
	return err
}

// Commit commits the live transaction.
func (p *PipeConn) Commit() error {
	_, err := p.step(&wire.Commit{})
	return err
}

// Abort aborts the live transaction.
func (p *PipeConn) Abort() error {
	_, err := p.step(&wire.Abort{})
	return err
}

// Ping round-trips a nonce.
func (p *PipeConn) Ping(nonce uint64) error {
	reply, err := p.step(&wire.Ping{Nonce: nonce})
	if err != nil {
		return err
	}
	if got := reply.(*wire.Pong).Nonce; got != nonce {
		p.fail(fmt.Errorf("client: pong nonce %d, want %d", got, nonce))
		return p.errNow()
	}
	return nil
}

// TxnFuture is one whole transaction submitted as a TXN frame, its one
// reply pending.
type TxnFuture struct{ req Pending }

// SubmitTxn submits one whole transaction — the named template with a
// firm deadline budget (0: none) and its reads and writes (*wire.Read,
// *wire.Write) in order — as a single TXN frame into the unflushed batch
// and returns without waiting; the batch leaves when the owner next
// blocks. The frame is encoded before SubmitTxn returns, so the caller may
// reuse steps. The server executes in arrival order, so a caller may submit
// the next transaction before this one resolves: they serialize exactly as
// submitted, and one that fails does not disturb its successors.
// Transactions submitted back to back share one write.
func (p *PipeConn) SubmitTxn(name string, budget time.Duration, steps []wire.Message) (*TxnFuture, error) {
	ops := p.txn.Ops[:0]
	for _, m := range steps {
		switch m := m.(type) {
		case *wire.Read:
			ops = append(ops, wire.TxnOp{Op: wire.OpRead, Item: m.Item})
		case *wire.Write:
			ops = append(ops, wire.TxnOp{Op: wire.OpWrite, Item: m.Item, Value: m.Value})
		default:
			return nil, fmt.Errorf("client: a transaction step is a READ or a WRITE, not %s", m.Kind())
		}
	}
	p.txn = wire.Txn{Name: name, Deadline: budgetMs(budget), Ops: ops}
	return p.submitBurst()
}

// SubmitReadTxn submits one declared read-only snapshot transaction
// reading items, as SubmitTxn does. The server routes it around admission
// entirely.
func (p *PipeConn) SubmitReadTxn(items []uint32) (*TxnFuture, error) {
	ops := p.txn.Ops[:0]
	for _, it := range items {
		ops = append(ops, wire.TxnOp{Op: wire.OpRead, Item: it})
	}
	p.txn = wire.Txn{ReadOnly: true, Ops: ops}
	return p.submitBurst()
}

// submitBurst encodes p.txn, which the caller has just filled.
func (p *PipeConn) submitBurst() (*TxnFuture, error) {
	f := new(TxnFuture)
	if err := p.submit(&f.req, &p.txn); err != nil {
		return nil, err
	}
	return f, nil
}

// Wait blocks for the transaction's outcome, flushing the unflushed batch
// first if it has to block; like SubmitTxn it belongs to the connection's
// owner goroutine. A refusal or a failed operation comes back as the
// *wire.RemoteError that is the transaction's one reply; any other error
// means the connection failed underneath it.
func (f *TxnFuture) Wait() error {
	_, err := f.req.Wait()
	return err
}

// Reads returns the value of every read of a committed transaction, in
// step order; it is valid once Wait has returned nil.
func (f *TxnFuture) Reads() []int64 {
	if f.req.done.Load() {
		if ok, committed := f.req.reply.(*wire.TxnOK); committed {
			return ok.Reads
		}
	}
	return nil
}

// RunTxn runs one whole transaction and waits for its outcome: one frame
// and one write out, one frame back, no overlap with the caller's next
// transaction.
func (p *PipeConn) RunTxn(name string, budget time.Duration, steps []wire.Message) error {
	fut, err := p.SubmitTxn(name, budget, steps)
	if err != nil {
		return err
	}
	return fut.Wait()
}

// RunReadTxn runs one read-only snapshot transaction and waits for its
// outcome.
func (p *PipeConn) RunReadTxn(items []uint32) error {
	fut, err := p.SubmitReadTxn(items)
	if err != nil {
		return err
	}
	return fut.Wait()
}
