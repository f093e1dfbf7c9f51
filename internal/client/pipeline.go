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

// PipeConn is one pipelined connection (tagged framing, wire v3 and up):
// many requests in flight at once, each carrying a client-chosen tag, with
// a demux goroutine matching out-of-order replies back to their callers.
// Every method, and Wait on the handles they return, is single-owner — one
// goroutine drives the connection — while the demux goroutine runs
// internally; the two share only the pending table and the sticky error,
// both lock-protected. Submitted frames leave in one write when the owner
// is about to block inside PipeConn (a Wait whose outcome is not there
// yet, a submit into a full window); before sleeping elsewhere, Flush.
//
// When the server pins wire v2 (HelloOK.Proto < 3), the PipeConn degrades
// transparently to strict request/reply over the same socket: RunTxn
// executes its steps sequentially and no demux goroutine exists. Callers
// get the protocol semantics they asked for either way, just without the
// overlap.
type PipeConn struct {
	c       net.Conn      //pcpda:guardedby immutable
	br      *bufio.Reader //pcpda:guardedby none — the handshake's reader, owned by demux afterwards
	schema  *wire.HelloOK //pcpda:guardedby immutable
	timeout time.Duration //pcpda:guardedby immutable
	ver     uint8         //pcpda:guardedby immutable — negotiated tagged framing version: min(wire.Version, server Proto)
	strict  *Conn         //pcpda:guardedby immutable — non-nil: v2 fallback, all fields below unused

	// Owned by the submitting goroutine (never touched by demux).
	wbuf    []byte        //pcpda:guardedby none — encoded-but-unflushed frames, tags sent..nextTag-1
	nextTag uint32        //pcpda:guardedby none
	sent    uint32        //pcpda:guardedby none — nextTag at the last flush: tags before it are on the wire
	winCh   chan struct{} // window semaphore: one slot per unreplied submit

	// Shared with the demux goroutine.
	mu          sync.Mutex
	pending     map[uint32]pendSlot
	outstanding int       // flushed requests awaiting replies
	armedAt     time.Time // when the read deadline was last pushed out
	err         error     // sticky; set once, before done closes
	done        chan struct{}
	closeOnce   sync.Once
}

// pendSlot is the demux table entry for one in-flight tag: either a
// standalone request with its own reply channel, or one frame of a
// whole-transaction burst sharing its TxnFuture. A value type on purpose —
// the burst path allocates one TxnFuture per transaction, not one channel
// per frame.
type pendSlot struct {
	want   wire.Kind
	single *Pending   // standalone request (nil on the burst path)
	group  *TxnFuture // burst membership (nil on the standalone path)
}

// Pending is one standalone submitted request awaiting its reply.
type Pending struct {
	p    *PipeConn
	want wire.Kind
	ch   chan wire.Message // cap 1; closed after delivery or on failure
}

// errPipeClosed is the sticky error of an explicitly closed PipeConn.
var errPipeClosed = errors.New("client: pipelined connection closed")

// DialPipelined connects, performs the HELLO handshake (strict, untagged)
// and switches to pipelined framing when the server advertises wire v3.
// window bounds requests in flight per connection (default 32); opTimeout
// bounds the handshake and, afterwards, the gap between consecutive
// replies while requests are outstanding.
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
	// The handshake is strict request/reply at v2 on every connection: the
	// schema reply carries the Proto that says whether tags are welcome.
	sc := newConn(nc, opTimeout)
	reply, err := sc.roundTrip(&wire.Hello{})
	if err != nil {
		_ = nc.Close()
		return nil, err
	}
	ok, isOK := reply.(*wire.HelloOK)
	if !isOK {
		_ = nc.Close()
		return nil, fmt.Errorf("client: handshake reply %s", reply.Kind())
	}
	sc.schema = ok
	p := &PipeConn{c: nc, br: sc.br, schema: ok, timeout: opTimeout, ver: min(wire.Version, ok.Proto)}
	if ok.Proto < wire.V3 {
		p.strict = sc
		return p, nil
	}
	p.winCh = make(chan struct{}, window)
	p.pending = make(map[uint32]pendSlot)
	p.done = make(chan struct{})
	go p.demux()
	return p, nil
}

// Schema returns the transaction-set schema from the handshake.
func (p *PipeConn) Schema() *wire.HelloOK { return p.schema }

// Pipelined reports whether the connection actually pipelines (false when
// the server pinned wire v2 and the strict fallback is in effect).
func (p *PipeConn) Pipelined() bool { return p.strict == nil }

// Broken reports whether the connection suffered a failure and must not
// be reused.
func (p *PipeConn) Broken() bool {
	if p.strict != nil {
		return p.strict.Broken()
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err != nil
}

// Close tears the connection down; every unreplied request fails. A
// transaction left live server-side unwinds via the server's disconnect
// auto-abort, and tagged BEGINs still parked in admission are abandoned
// (the server's claim protocol discards their grants).
func (p *PipeConn) Close() error {
	if p.strict != nil {
		return p.strict.Close()
	}
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
		var groups []*TxnFuture
		for _, s := range pend {
			if s.group != nil && !s.group.delivered {
				s.group.delivered = true // several tags share one future
				groups = append(groups, s.group)
			}
		}
		close(p.done)
		p.mu.Unlock()
		_ = p.c.Close()
		for _, s := range pend {
			if s.single != nil {
				close(s.single.ch)
			}
		}
		for _, g := range groups {
			close(g.done)
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

// demux is the read side: it matches tagged replies to pending requests,
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
		m, ver, tag, sc, err := wire.ReadAny(p.br, scratch)
		if err != nil {
			if p.idleTimeout(err) {
				continue
			}
			p.fail(fmt.Errorf("client: pipeline read: %w", err))
			return
		}
		scratch = sc
		if ver < wire.V3 {
			// The only untagged frame a pipelined conversation can see is a
			// terminal protocol error from the server.
			if e, isErr := m.(*wire.ErrMsg); isErr {
				p.fail(&wire.RemoteError{Code: e.Code, Text: e.Text})
			} else {
				p.fail(fmt.Errorf("client: untagged %s in a pipelined stream", m.Kind()))
			}
			return
		}
		p.mu.Lock()
		s, ok := p.pending[tag]
		if !ok {
			p.mu.Unlock()
			p.fail(fmt.Errorf("client: reply %s with unknown tag %d", m.Kind(), tag))
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
		if g := s.group; g != nil {
			// One frame of a burst: fold the reply into the shared future and
			// deliver once when the last frame lands.
			if e, isErr := m.(*wire.ErrMsg); isErr {
				if g.txErr == nil {
					g.txErr = &wire.RemoteError{Code: e.Code, Text: e.Text}
				}
				// Later typed failures are the CodeState fallout of the server
				// speculating past the first one; dropping them is the contract.
			} else if m.Kind() != s.want {
				p.mu.Unlock()
				p.fail(fmt.Errorf("client: reply %s, want %s", m.Kind(), s.want))
				return
			}
			g.remaining--
			deliver := g.sealed && g.remaining == 0 && !g.delivered
			g.delivered = g.delivered || deliver
			p.mu.Unlock()
			if deliver {
				g.done <- g.txErr
			}
		} else {
			p.mu.Unlock()
			s.single.ch <- m
			close(s.single.ch)
		}
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

// submitSlot encodes m into the unflushed batch and registers slot for
// its tag. When the inflight window is exhausted it flushes and waits for
// a reply to free a slot; nothing reaches the server until a flush — that
// one, a Wait about to block, or the owner's own Flush — pushes the batch.
func (p *PipeConn) submitSlot(m wire.Message, slot pendSlot) error {
	select {
	case <-p.done:
		return p.errNow()
	default:
	}
	// Window slot: try without blocking; if the window is full, flush the
	// batch so the outstanding replies that free slots can actually arrive.
	select {
	case p.winCh <- struct{}{}:
	default:
		if err := p.Flush(); err != nil {
			return err
		}
		select {
		case p.winCh <- struct{}{}:
		case <-p.done:
			return p.errNow()
		}
	}
	tag := p.nextTag
	buf, err := wire.AppendTagged(p.wbuf, p.ver, tag, m)
	if err != nil {
		<-p.winCh
		return err
	}
	p.wbuf = buf
	p.nextTag++
	p.mu.Lock()
	if p.err != nil {
		p.mu.Unlock()
		<-p.winCh
		return p.errNow()
	}
	p.pending[tag] = slot
	if slot.group != nil {
		slot.group.remaining++
	}
	p.mu.Unlock()
	return nil
}

// Submit encodes m into the unflushed batch and returns its Pending
// handle.
func (p *PipeConn) Submit(m wire.Message) (*Pending, error) {
	if p.strict != nil {
		return nil, errors.New("client: Submit on a non-pipelined connection")
	}
	f := &Pending{p: p, want: wantKind(m), ch: make(chan wire.Message, 1)}
	if err := p.submitSlot(m, pendSlot{want: f.want, single: f}); err != nil {
		return nil, err
	}
	return f, nil
}

// Flush writes every submitted-but-unflushed frame in one write; an owner
// needs it only before going to sleep outside PipeConn with requests
// submitted. The read deadline is armed before the write so a reply racing
// the flush can only extend it, never leave outstanding work undeadlined.
func (p *PipeConn) Flush() error {
	if p.strict != nil {
		return nil
	}
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

// await receives an outcome from ch, flushing the unflushed batch first if
// nothing is there yet: nothing stays unflushed while its owner blocks. A
// failed flush fails the connection, which closes ch.
func await[T any](p *PipeConn, ch <-chan T) (T, bool) {
	select {
	case v, ok := <-ch:
		return v, ok
	default:
	}
	_ = p.Flush()
	v, ok := <-ch
	return v, ok
}

// Wait blocks for the reply, flushing the unflushed batch first if it has
// to block; like Submit it belongs to the connection's owner goroutine.
// ERR replies come back as *wire.RemoteError; a reply of an unexpected
// kind is a stream desync and kills the connection.
func (f *Pending) Wait() (wire.Message, error) {
	m, ok := await(f.p, f.ch)
	if !ok {
		return nil, f.p.errNow()
	}
	if e, isErr := m.(*wire.ErrMsg); isErr {
		return nil, &wire.RemoteError{Code: e.Code, Text: e.Text}
	}
	if m.Kind() != f.want {
		f.p.fail(fmt.Errorf("client: reply %s, want %s", m.Kind(), f.want))
		return nil, f.p.errNow()
	}
	return m, nil
}

// wantKind maps a request to its success reply kind: the request's kind
// with the high bit set (see wire.Kind).
func wantKind(m wire.Message) wire.Kind { return m.Kind() | 0x80 }

// Ping round-trips a nonce through the pipeline (one submit, one wait).
func (p *PipeConn) Ping(nonce uint64) error {
	if p.strict != nil {
		return p.strict.Ping(nonce)
	}
	f, err := p.Submit(&wire.Ping{Nonce: nonce})
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

// TxnFuture is one whole transaction submitted as a pipelined burst,
// replies pending. The demux goroutine folds every
// frame's reply into it and delivers the outcome once, when the last
// frame lands — one channel send per transaction, not one per frame.
// All fields except done/p are guarded by the connection's mu.
type TxnFuture struct {
	p         *PipeConn
	remaining int        // frames submitted and not yet replied
	sealed    bool       // every frame of the burst is registered
	delivered bool       // outcome sent (or the future failed with the conn)
	txErr     error      // first typed failure: the transaction's outcome
	done      chan error // cap 1
}

// SubmitTxn submits one whole transaction as a single pipelined burst —
// BEGIN, every step, COMMIT — into the unflushed batch and returns without
// waiting; the batch leaves when the owner next blocks. The server
// executes in arrival order, so a caller may submit the next transaction's
// burst before this one resolves: exec-side FIFO guarantees the bursts
// serialize exactly as submitted, and a failed burst's frames draw
// CodeState fallout without disturbing its successors. Bursts submitted
// back to back share one write. A burst that cannot be submitted whole
// leaves nothing behind (see abandon).
func (p *PipeConn) SubmitTxn(name string, budget time.Duration, steps []wire.Message) (*TxnFuture, error) {
	if p.strict != nil {
		return nil, errors.New("client: SubmitTxn on a non-pipelined connection")
	}
	return p.submitBurst(beginMsg(name, budget), steps)
}

// SubmitReadTxn submits one declared read-only snapshot transaction as a
// single pipelined burst — BEGIN with the read-only flag, one READ per
// item, COMMIT — and returns without waiting, as SubmitTxn does. The server
// routes the transaction around admission entirely; requires a server
// speaking wire v4.
func (p *PipeConn) SubmitReadTxn(items []uint32) (*TxnFuture, error) {
	if p.strict != nil {
		return nil, errors.New("client: SubmitReadTxn on a non-pipelined connection")
	}
	if p.ver < wire.V4 {
		return nil, fmt.Errorf("client: read-only transactions require wire v4 (server speaks v%d)", p.schema.Proto)
	}
	steps := make([]wire.Message, len(items))
	for i, it := range items {
		steps[i] = &wire.Read{Item: it}
	}
	return p.submitBurst(&wire.Begin{ReadOnly: true}, steps)
}

// submitBurst registers begin + steps + COMMIT under one TxnFuture and
// seals the future; nothing is flushed unless the window fills.
func (p *PipeConn) submitBurst(begin wire.Message, steps []wire.Message) (*TxnFuture, error) {
	fut := &TxnFuture{p: p, done: make(chan error, 1)}
	mark, t0 := len(p.wbuf), p.nextTag
	err := p.submitSlot(begin, pendSlot{want: wire.KindBeginOK, group: fut})
	for i := 0; err == nil && i < len(steps); i++ {
		err = p.submitSlot(steps[i], pendSlot{want: wantKind(steps[i]), group: fut})
	}
	if err == nil {
		err = p.submitSlot(&wire.Commit{}, pendSlot{want: wire.KindCommitOK, group: fut})
	}
	if err != nil {
		p.abandon(mark, t0, err)
		return nil, err
	}
	// Seal: only now may the demux deliver on remaining==0. A mid-burst
	// auto-flush can have drawn replies for the early frames before the
	// late ones were registered; without the seal that would deliver a
	// partial outcome.
	p.mu.Lock()
	fut.sealed = true
	deliver := fut.remaining == 0 && !fut.delivered
	fut.delivered = fut.delivered || deliver
	p.mu.Unlock()
	if deliver {
		fut.done <- fut.txErr
	}
	return fut, nil
}

// abandon takes back the frames a burst submitted before one of them
// failed to encode: they leave the unflushed batch (mark bytes long when
// the burst started), their tags — t0 onwards — the table and their slots
// the window, as if the burst had never been submitted. If a full window
// has pushed the burst's head onto the wire, the server holds a BEGIN that
// will never see its COMMIT, so the connection fails instead.
func (p *PipeConn) abandon(mark int, t0 uint32, cause error) {
	if p.Broken() {
		return // nothing left to keep consistent
	}
	switch d := int32(p.sent - t0); {
	case d > 0:
		p.fail(fmt.Errorf("client: burst abandoned half sent: %w", cause))
		return
	case d == 0:
		mark = 0 // the last flush emptied the batch right at the burst's first tag
	}
	p.mu.Lock()
	for tag := t0; tag != p.nextTag; tag++ {
		delete(p.pending, tag)
	}
	p.mu.Unlock()
	for tag := t0; tag != p.nextTag; tag++ {
		<-p.winCh
	}
	p.wbuf, p.nextTag = p.wbuf[:mark], t0
}

// Wait blocks for the transaction's outcome, flushing the unflushed batch
// first if it has to block; like SubmitTxn it belongs to the connection's
// owner goroutine. If BEGIN (or any step) failed, the server answered
// every subsequent frame of the burst with CodeState — expected fallout
// the demux drained and discarded; the first typed failure is the outcome.
// A closed future means the connection failed underneath the burst.
func (f *TxnFuture) Wait() error {
	err, ok := await(f.p, f.done)
	if !ok {
		return f.p.errNow()
	}
	return err
}

// RunTxn runs one whole transaction as a single pipelined burst and waits
// for its outcome: one write, one batch of replies, no overlap with the
// caller's next transaction.
func (p *PipeConn) RunTxn(name string, budget time.Duration, steps []wire.Message) error {
	if p.strict != nil {
		return p.runStrict(name, budget, steps)
	}
	fut, err := p.SubmitTxn(name, budget, steps)
	if err != nil {
		return err
	}
	return fut.Wait()
}

// RunReadTxn runs one read-only snapshot transaction as a single
// pipelined burst and waits for its outcome.
func (p *PipeConn) RunReadTxn(items []uint32) error {
	fut, err := p.SubmitReadTxn(items)
	if err != nil {
		return err
	}
	return fut.Wait()
}

// runStrict is RunTxn over the v2 fallback: the same transaction, one
// round trip per frame.
func (p *PipeConn) runStrict(name string, budget time.Duration, steps []wire.Message) error {
	if _, err := p.strict.BeginBudget(name, budget); err != nil {
		return err
	}
	for _, m := range steps {
		switch m := m.(type) {
		case *wire.Read:
			if _, err := p.strict.Read(m.Item); err != nil {
				return err
			}
		case *wire.Write:
			if err := p.strict.Write(m.Item, m.Value); err != nil {
				return err
			}
		default:
			return fmt.Errorf("client: RunTxn step %s unsupported", m.Kind())
		}
	}
	return p.strict.Commit()
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
// deadline — back off and rerun the whole burst.
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
