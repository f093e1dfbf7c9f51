package client

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"pcpda/internal/wire"
)

// PipeConn is one pipelined connection: many requests in flight at once,
// each carrying a client-chosen tag, with a demux goroutine matching
// out-of-order replies back to their callers. A transaction travels whole —
// one TXN frame out, one TXN_OK or ERR back (SubmitTxn, RunTxn and their
// read-only forms); Submit sends any single request, which is how a
// transaction is driven a step at a time when its writes depend on its
// reads. Every method, and Wait on the handles they return, is
// single-owner — one goroutine drives the connection — while the demux
// goroutine runs internally; the two share only the pending table and the
// sticky error, both lock-protected. Submitted frames leave in one write
// when the owner is about to block inside PipeConn (a Wait whose outcome is
// not there yet, a submit into a full window); before sleeping elsewhere,
// Flush.
type PipeConn struct {
	c       net.Conn      //pcpda:guardedby immutable
	br      *bufio.Reader //pcpda:guardedby none — the handshake's reader, owned by demux afterwards
	schema  *wire.HelloOK //pcpda:guardedby immutable
	timeout time.Duration //pcpda:guardedby immutable

	// Owned by the submitting goroutine (never touched by demux).
	wbuf    []byte        //pcpda:guardedby none — encoded-but-unflushed frames, tags sent..nextTag-1
	nextTag uint32        //pcpda:guardedby none
	sent    uint32        //pcpda:guardedby none — nextTag at the last flush: tags before it are on the wire
	txn     wire.Txn      //pcpda:guardedby none — the TXN being encoded; Ops is reused from one to the next
	winCh   chan struct{} // window semaphore: one slot per unreplied submit

	// Shared with the demux goroutine.
	mu          sync.Mutex
	pending     map[uint32]chan wire.Message // in-flight tag → where its reply goes (cap 1)
	outstanding int                          // flushed requests awaiting replies
	armedAt     time.Time                    // when the read deadline was last pushed out
	err         error                        // sticky; set once, before done closes
	done        chan struct{}
	closeOnce   sync.Once
}

// Pending is one submitted request awaiting its reply.
type Pending struct {
	p    *PipeConn
	want wire.Kind
	ch   chan wire.Message // cap 1; closed after delivery or on failure
}

// errPipeClosed is the sticky error of an explicitly closed PipeConn.
var errPipeClosed = errors.New("client: pipelined connection closed")

// DialPipelined connects, performs the HELLO handshake and starts the
// demux. window bounds requests in flight on the connection (default 32) —
// a whole transaction is one request, so for SubmitTxn it is the number of
// transactions in flight; opTimeout bounds the handshake and, afterwards,
// the gap between consecutive replies while requests are outstanding. A
// server that turns the connection down does so with a typed ERR, which
// comes back as a *wire.RemoteError.
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
// which it closes on failure.
func handshakePipelined(nc net.Conn, opTimeout time.Duration, window int) (*PipeConn, error) {
	if window <= 0 {
		window = 32
	}
	// The handshake is one strict round trip; its connection's reader and
	// tag sequence carry on underneath the pipeline.
	sc, err := handshake(nc, opTimeout)
	if err != nil {
		return nil, err
	}
	p := &PipeConn{c: nc, br: sc.br, schema: sc.schema, timeout: opTimeout,
		nextTag: sc.tag, sent: sc.tag,
		winCh:   make(chan struct{}, window),
		pending: make(map[uint32]chan wire.Message),
		done:    make(chan struct{}),
	}
	go p.demux()
	return p, nil
}

// Schema returns the transaction-set schema from the handshake.
func (p *PipeConn) Schema() *wire.HelloOK { return p.schema }

// Broken reports whether the connection suffered a failure and must not
// be reused.
func (p *PipeConn) Broken() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err != nil
}

// Close tears the connection down; every unreplied request fails. A
// transaction left live server-side unwinds via the server's disconnect
// auto-abort, and one still parked in admission is abandoned (the server's
// claim protocol discards its grant).
func (p *PipeConn) Close() error {
	p.fail(errPipeClosed)
	return nil
}

// fail records the first error, closes the socket (unblocking the demux
// read) and fails every pending request. Idempotent.
func (p *PipeConn) fail(err error) {
	p.closeOnce.Do(func() {
		p.mu.Lock()
		p.err = err
		pend := p.pending
		p.pending = nil
		close(p.done)
		p.mu.Unlock()
		_ = p.c.Close()
		for _, ch := range pend {
			close(ch)
		}
	})
}

// errNow returns the sticky error (never nil once done is closed).
func (p *PipeConn) errNow() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err != nil {
		return p.err
	}
	return errors.New("client: pipelined connection failed")
}

// demux is the read side: it matches replies to pending requests by tag,
// in whatever order the server flushed them. The read deadline is managed
// against outstanding work — armed by Flush, pushed forward as replies
// arrive — so a server that goes silent mid-conversation fails the
// connection. The rearm is throttled (an eighth of the timeout has to
// pass before the deadline moves) because deadline updates cost a runtime
// timer modification per call, which at pipelined reply rates is pure
// overhead; a stall is still detected at most timeout+timeout/8 late. A
// deadline that fires with nothing outstanding is not a failure — the
// connection is just idle — so it rearms far out and keeps reading.
func (p *PipeConn) demux() {
	var scratch []byte
	for {
		m, _, tag, sc, err := wire.ReadAny(p.br, scratch)
		if err != nil {
			if p.idleTimeout(err) {
				continue
			}
			p.fail(fmt.Errorf("client: pipeline read: %w", err))
			return
		}
		scratch = sc
		p.mu.Lock()
		ch, ok := p.pending[tag]
		if !ok {
			p.mu.Unlock()
			// Nothing is waiting on this tag. An ERR is the server ending the
			// conversation and saying why; anything else is a desync.
			err := remoteError(m)
			if err == nil {
				err = fmt.Errorf("client: reply %s with unknown tag %d", m.Kind(), tag)
			}
			p.fail(err)
			return
		}
		delete(p.pending, tag)
		p.outstanding--
		if p.outstanding > 0 {
			if now := time.Now(); now.Sub(p.armedAt) > p.timeout/8 {
				p.armedAt = now
				_ = p.c.SetReadDeadline(now.Add(p.timeout))
			}
		}
		p.mu.Unlock()
		ch <- m
		close(ch)
		<-p.winCh // release the window slot
	}
}

// idleTimeout reports whether a read error is a deadline firing on an
// idle connection (nothing outstanding); if so it pushes the deadline far
// out so the blocked read can continue.
func (p *PipeConn) idleTimeout(err error) bool {
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.outstanding > 0 || p.err != nil {
		return false
	}
	p.armedAt = time.Time{}
	_ = p.c.SetReadDeadline(time.Now().Add(24 * time.Hour))
	return true
}

// submit encodes m into the unflushed batch under the next tag and
// registers a Pending for its reply. When the inflight window is exhausted
// it flushes and waits for a reply to free a slot; nothing reaches the
// server until a flush — that one, a Wait about to block, or the owner's
// own Flush — pushes the batch. A request that cannot be encoded leaves
// nothing behind: no bytes, no tag, no window slot.
func (p *PipeConn) submit(m wire.Message) (Pending, error) {
	select {
	case <-p.done:
		return Pending{}, p.errNow()
	default:
	}
	// Window slot: try without blocking; if the window is full, flush the
	// batch so the outstanding replies that free slots can actually arrive.
	select {
	case p.winCh <- struct{}{}:
	default:
		if err := p.Flush(); err != nil {
			return Pending{}, err
		}
		select {
		case p.winCh <- struct{}{}:
		case <-p.done:
			return Pending{}, p.errNow()
		}
	}
	tag := p.nextTag
	buf, err := wire.AppendTagged(p.wbuf, wire.Version, tag, m)
	if err != nil {
		<-p.winCh
		return Pending{}, err
	}
	f := Pending{p: p, want: m.Kind() | 0x80, ch: make(chan wire.Message, 1)} // a success reply is the request's kind with the high bit set
	p.mu.Lock()
	if p.err != nil {
		p.mu.Unlock()
		<-p.winCh
		return Pending{}, p.errNow()
	}
	p.pending[tag] = f.ch
	p.mu.Unlock()
	p.wbuf = buf
	p.nextTag++
	return f, nil
}

// Submit encodes m into the unflushed batch and returns its Pending
// handle.
func (p *PipeConn) Submit(m wire.Message) (*Pending, error) {
	f, err := p.submit(m)
	if err != nil {
		return nil, err
	}
	return &f, nil
}

// Flush writes every submitted-but-unflushed frame in one write; an owner
// needs it only before going to sleep outside PipeConn with requests
// submitted. The read deadline is armed before the write so a reply racing
// the flush can only extend it, never leave outstanding work undeadlined.
func (p *PipeConn) Flush() error {
	n := int(p.nextTag - p.sent)
	if n == 0 {
		return nil
	}
	p.mu.Lock()
	if p.err != nil {
		p.mu.Unlock()
		return p.errNow()
	}
	p.outstanding += n
	if now := time.Now(); now.Sub(p.armedAt) > p.timeout/8 {
		p.armedAt = now
		_ = p.c.SetReadDeadline(now.Add(p.timeout))
	}
	p.mu.Unlock()
	p.sent = p.nextTag
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
// kills the connection.
func (f *Pending) Wait() (wire.Message, error) {
	var m wire.Message
	var ok bool
	select {
	case m, ok = <-f.ch:
	default:
		_ = f.p.Flush() // a failed flush fails the connection, which closes ch
		m, ok = <-f.ch
	}
	if !ok {
		return nil, f.p.errNow()
	}
	if err := remoteError(m); err != nil {
		return nil, err
	}
	if m.Kind() != f.want {
		f.p.fail(fmt.Errorf("client: reply %s, want %s", m.Kind(), f.want))
		return nil, f.p.errNow()
	}
	return m, nil
}

// Ping round-trips a nonce through the pipeline (one submit, one wait).
func (p *PipeConn) Ping(nonce uint64) error {
	f, err := p.submit(&wire.Ping{Nonce: nonce})
	if err != nil {
		return err
	}
	reply, err := f.Wait()
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
type TxnFuture struct {
	req   Pending
	reads []int64
}

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
	f, err := p.submit(&p.txn)
	if err != nil {
		return nil, err
	}
	return &TxnFuture{req: f}, nil
}

// Wait blocks for the transaction's outcome, flushing the unflushed batch
// first if it has to block; like SubmitTxn it belongs to the connection's
// owner goroutine. A refusal or a failed operation comes back as the
// *wire.RemoteError that is the transaction's one reply; any other error
// means the connection failed underneath it.
func (f *TxnFuture) Wait() error {
	m, err := f.req.Wait()
	if err != nil {
		return err
	}
	f.reads = m.(*wire.TxnOK).Reads
	return nil
}

// Reads returns the value of every read of a committed transaction, in
// step order; it is valid once Wait has returned nil.
func (f *TxnFuture) Reads() []int64 { return f.reads }

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

// PipeClient is the retrying wrapper over one PipeConn: the pipelined
// analogue of Client, sharing its retryPolicy (budget, jitter, code hook).
// One goroutine per PipeClient; a broken connection is redialed on the
// next attempt.
type PipeClient struct {
	retryPolicy
	addr    string
	timeout time.Duration
	window  int
	conn    *PipeConn
}

// NewPipeClient builds a retrying pipelined client for addr. seed drives
// backoff jitter deterministically.
func NewPipeClient(addr string, opTimeout time.Duration, window int, seed int64) *PipeClient {
	return &PipeClient{
		retryPolicy: retryPolicy{MaxAttempts: 8, BackoffBase: time.Millisecond,
			rng: rand.New(rand.NewSource(seed))},
		addr: addr, timeout: opTimeout, window: window,
	}
}

// DoTxn runs one transaction (see PipeConn.RunTxn) under the retry
// policy: retryable typed failures — overload, shed, infeasible, abort,
// deadline, and a server at its connection limit refusing the dial — back
// off and rerun the whole transaction.
func (pc *PipeClient) DoTxn(name string, budget time.Duration, steps []wire.Message) error {
	return pc.run(name, func() error {
		return pc.attempt(func(c *PipeConn) error { return c.RunTxn(name, budget, steps) })
	})
}

// attempt runs txn on the current connection, dialing first if there is
// none, and drops a connection the attempt broke.
func (pc *PipeClient) attempt(txn func(*PipeConn) error) error {
	c, err := pc.get()
	if err != nil {
		return err
	}
	err = txn(c)
	if c.Broken() {
		_ = c.Close()
		pc.conn = nil
	}
	return err
}

// DoReadTxn runs one read-only snapshot transaction under the retry
// policy. The only retryable failure specific to this path is a snapshot
// evicted from a version chain (CodeAborted); a fresh attempt begins on a
// fresh snapshot, so the retry re-reads committed state — idempotent by
// construction.
func (pc *PipeClient) DoReadTxn(items []uint32) error {
	return pc.run("read-only", func() error {
		return pc.attempt(func(c *PipeConn) error { return c.RunReadTxn(items) })
	})
}

func (pc *PipeClient) get() (*PipeConn, error) {
	if pc.conn != nil && !pc.conn.Broken() {
		return pc.conn, nil
	}
	c, err := DialPipelined(pc.addr, pc.timeout, pc.window)
	if err != nil {
		return nil, err
	}
	pc.conn = c
	return c, nil
}

// Schema dials if necessary and returns the handshake schema.
func (pc *PipeClient) Schema() (*wire.HelloOK, error) {
	c, err := pc.get()
	if err != nil {
		return nil, err
	}
	return c.Schema(), nil
}

// Close closes the underlying connection, if any.
func (pc *PipeClient) Close() {
	if pc.conn != nil {
		_ = pc.conn.Close()
		pc.conn = nil
	}
}
