// Package client speaks the internal/wire protocol to a pcpdad server:
// a single-connection Conn with strict request/reply pairing that drives a
// transaction a step at a time, a PipeConn that keeps many requests in
// flight and sends a transaction whole, a fixed-capacity connection Pool,
// and retrying Client / PipeClient wrappers that turn the server's typed
// backpressure (CodeOverload) and optimistic failures (CodeAborted,
// CodeDeadline) into seeded-jitter retry loops.
package client

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"pcpda/internal/wire"
)

// Conn is one protocol connection with one request in flight: every call
// is a round trip. Not safe for concurrent use.
type Conn struct {
	c       net.Conn
	br      *bufio.Reader // every byte read off c, for the connection's whole life
	schema  *wire.HelloOK
	timeout time.Duration
	tag     uint32 // the next request's; HELLO goes out at 0
	wbuf    []byte
	rbuf    []byte
	broken  bool // a transport or framing error desynced the stream
}

// Dial connects, performs the HELLO handshake and returns a ready Conn.
// opTimeout bounds every subsequent request/reply round trip. A server
// that turns the connection down (at its connection limit, say) does so
// with a typed ERR, which comes back as a *wire.RemoteError.
func Dial(addr string, opTimeout time.Duration) (*Conn, error) {
	if opTimeout <= 0 {
		opTimeout = 10 * time.Second
	}
	nc, err := net.DialTimeout("tcp", addr, opTimeout)
	if err != nil {
		return nil, fmt.Errorf("client: dial %s: %w", addr, err)
	}
	return handshake(nc, opTimeout)
}

// handshake wraps a freshly dialed socket, which it closes on failure, and
// exchanges HELLO for the schema. The buffered reader exists before the
// first byte is read, so whatever the server writes back-to-back with a
// reply costs one read on the socket, and a pipelined connection that takes
// the reader over after the handshake finds every byte the handshake's read
// pulled in.
func handshake(nc net.Conn, opTimeout time.Duration) (*Conn, error) {
	c := &Conn{c: nc, br: bufio.NewReader(nc), timeout: opTimeout}
	reply, err := c.op(&wire.Hello{}, wire.KindHelloOK)
	if err != nil {
		_ = nc.Close()
		return nil, err
	}
	c.schema = reply.(*wire.HelloOK)
	return c, nil
}

// Schema returns the transaction-set schema from the handshake.
func (c *Conn) Schema() *wire.HelloOK { return c.schema }

// Broken reports whether the connection suffered a transport or framing
// failure and must not be reused.
func (c *Conn) Broken() bool { return c.broken }

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.c.Close() }

func (c *Conn) roundTrip(req wire.Message) (wire.Message, error) {
	if c.broken {
		return nil, errors.New("client: connection is broken")
	}
	if err := c.c.SetDeadline(time.Now().Add(c.timeout)); err != nil {
		c.broken = true
		return nil, err
	}
	tag := c.tag
	buf, err := wire.AppendTagged(c.wbuf[:0], wire.Version, tag, req)
	if err != nil {
		return nil, err
	}
	c.wbuf = buf
	c.tag++
	if _, err := c.c.Write(buf); err != nil {
		c.broken = true
		return nil, fmt.Errorf("client: write %s: %w", req.Kind(), err)
	}
	reply, _, got, rbuf, err := wire.ReadAny(c.br, c.rbuf)
	if err != nil {
		c.broken = true
		return nil, fmt.Errorf("client: read reply to %s: %w", req.Kind(), err)
	}
	c.rbuf = rbuf
	if got != tag {
		// Not this request's reply: the stream is useless from here. An ERR
		// is the server ending the conversation and saying why.
		c.broken = true
		if err := remoteError(reply); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("client: reply %s tagged %d to %s tagged %d", reply.Kind(), got, req.Kind(), tag)
	}
	return reply, nil
}

// remoteError is the *wire.RemoteError an ERR reply stands for, nil for any
// other message.
func remoteError(m wire.Message) error {
	if e, isErr := m.(*wire.ErrMsg); isErr {
		return &wire.RemoteError{Code: e.Code, Text: e.Text}
	}
	return nil
}

// op performs one round trip and maps an ERR reply to *wire.RemoteError.
// want is the expected success kind.
func (c *Conn) op(req wire.Message, want wire.Kind) (wire.Message, error) {
	reply, err := c.roundTrip(req)
	if err != nil {
		return nil, err
	}
	if err := remoteError(reply); err != nil {
		return nil, err
	}
	if reply.Kind() != want {
		c.broken = true
		return nil, fmt.Errorf("client: reply %s to %s, want %s", reply.Kind(), req.Kind(), want)
	}
	return reply, nil
}

// Begin starts a transaction of the named type and returns its job id.
func (c *Conn) Begin(name string) (uint64, error) {
	return c.BeginBudget(name, 0)
}

// budgetMs is budget as BEGIN and TXN carry a firm deadline: whole
// milliseconds. budget <= 0 means no deadline; sub-millisecond budgets
// round up to 1ms rather than silently dropping the deadline.
func budgetMs(budget time.Duration) uint32 {
	if budget <= 0 {
		return 0
	}
	return uint32(min((budget+time.Millisecond-1)/time.Millisecond, math.MaxUint32))
}

// BeginBudget starts a transaction with a firm deadline budget: the server
// refuses it (CodeInfeasible) if its queue-wait estimate already breaks
// the budget, and its watchdog force-aborts the transaction if it is still
// live past budget+grace. budget <= 0 means no deadline.
func (c *Conn) BeginBudget(name string, budget time.Duration) (uint64, error) {
	reply, err := c.op(&wire.Begin{Name: name, Deadline: budgetMs(budget)}, wire.KindBeginOK)
	if err != nil {
		return 0, err
	}
	return reply.(*wire.BeginOK).ID, nil
}

// Read reads one item inside the live transaction.
func (c *Conn) Read(item uint32) (int64, error) {
	reply, err := c.op(&wire.Read{Item: item}, wire.KindReadOK)
	if err != nil {
		return 0, err
	}
	return reply.(*wire.ReadOK).Value, nil
}

// Write writes one item inside the live transaction.
func (c *Conn) Write(item uint32, v int64) error {
	_, err := c.op(&wire.Write{Item: item, Value: v}, wire.KindWriteOK)
	return err
}

// Commit commits the live transaction.
func (c *Conn) Commit() error {
	_, err := c.op(&wire.Commit{}, wire.KindCommitOK)
	return err
}

// Abort aborts the live transaction.
func (c *Conn) Abort() error {
	_, err := c.op(&wire.Abort{}, wire.KindAbortOK)
	return err
}

// Ping round-trips a nonce.
func (c *Conn) Ping(nonce uint64) error {
	reply, err := c.op(&wire.Ping{Nonce: nonce}, wire.KindPong)
	if err != nil {
		return err
	}
	if got := reply.(*wire.Pong).Nonce; got != nonce {
		c.broken = true
		return fmt.Errorf("client: pong nonce %d, want %d", got, nonce)
	}
	return nil
}

// Pool keeps up to cap idle connections to one address for reuse.
type Pool struct {
	addr    string
	timeout time.Duration

	mu     sync.Mutex
	idle   []*Conn
	closed bool
}

// NewPool builds a pool dialing addr with the given per-op timeout,
// keeping at most capacity idle connections.
func NewPool(addr string, opTimeout time.Duration, capacity int) *Pool {
	if capacity <= 0 {
		capacity = 8
	}
	return &Pool{addr: addr, timeout: opTimeout, idle: make([]*Conn, 0, capacity)}
}

// Get returns an idle connection or dials a new one.
func (p *Pool) Get() (*Conn, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, errors.New("client: pool closed")
	}
	if n := len(p.idle); n > 0 {
		c := p.idle[n-1]
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		return c, nil
	}
	p.mu.Unlock()
	return Dial(p.addr, p.timeout)
}

// Put returns a connection to the pool. Broken connections, and any
// connection beyond the pool's capacity, are closed instead.
func (p *Pool) Put(c *Conn) {
	if c == nil {
		return
	}
	if c.Broken() {
		_ = c.Close()
		return
	}
	p.mu.Lock()
	if p.closed || len(p.idle) == cap(p.idle) {
		p.mu.Unlock()
		_ = c.Close()
		return
	}
	p.idle = append(p.idle, c)
	p.mu.Unlock()
}

// Close closes the pool and every idle connection.
func (p *Pool) Close() {
	p.mu.Lock()
	idle := p.idle
	p.idle = nil
	p.closed = true
	p.mu.Unlock()
	for _, c := range idle {
		_ = c.Close()
	}
}

// RetryBudget is a token bucket bounding the global ratio of retries to
// first attempts across every Client sharing it. Each Do call earns a
// fraction of a token; each retry spends a whole one. Under normal
// operation the bucket stays near full and retries are free; under
// sustained overload the spend rate caps at the earn rate, so the retry
// traffic a saturated server sees is at most EarnPerCall of the offered
// load — the classic defense against retry storms turning an overload
// into a metastable failure.
type RetryBudget struct {
	mu         sync.Mutex
	tokens     float64
	burst      float64
	earn       float64
	suppressed int64
}

// NewRetryBudget builds a budget earning earnPerCall tokens per first
// attempt (default 0.2) with the given burst capacity (default 20). The
// bucket starts full so short bursts of failures retry freely.
func NewRetryBudget(earnPerCall, burst float64) *RetryBudget {
	if earnPerCall <= 0 {
		earnPerCall = 0.2
	}
	if burst < 1 {
		burst = 20
	}
	return &RetryBudget{tokens: burst, burst: burst, earn: earnPerCall}
}

func (b *RetryBudget) credit() {
	b.mu.Lock()
	b.tokens = min(b.burst, b.tokens+b.earn)
	b.mu.Unlock()
}

// take spends one token if available; a refusal is counted as a
// suppressed retry.
func (b *RetryBudget) take() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tokens >= 1 {
		b.tokens--
		return true
	}
	b.suppressed++
	return false
}

// Suppressed returns how many retries the budget has refused.
func (b *RetryBudget) Suppressed() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.suppressed
}

// retryPolicy is the retry skeleton shared by the strict Client and the
// pipelined PipeClient: seeded full-jitter exponential backoff on the
// protocol's retryable error codes, optionally capped by a RetryBudget.
type retryPolicy struct {
	// MaxAttempts bounds tries per Do call (default 8).
	MaxAttempts int
	// BackoffBase is the first retry's sleep ceiling; it doubles per
	// attempt (full jitter, default 1ms).
	BackoffBase time.Duration
	// Retries, when set, is incremented once per retry attempt.
	Retries *atomic.Int64
	// Budget, when set, globally caps retries: a retry the budget refuses
	// ends the Do call with the last error instead of sleeping and trying
	// again. Share one budget across all clients of a workload.
	Budget *RetryBudget
	// CodeHook, when set, observes every typed server error an attempt
	// returns (including ones that are then retried) — load generators use
	// it to count sheds and infeasible rejections that Do would otherwise
	// absorb.
	CodeHook func(wire.ErrorCode)

	mu  sync.Mutex
	rng *rand.Rand
}

// run drives attempt under the policy: retryable typed failures back off
// and try again (budget permitting); anything else ends the call.
func (rp *retryPolicy) run(name string, attempt func() error) error {
	rp.earn()
	return rp.resume(name, attempt(), attempt)
}

// earn credits the budget with one transaction's first attempt.
func (rp *retryPolicy) earn() {
	if rp.Budget != nil {
		rp.Budget.credit()
	}
}

// resume carries a transaction on from err, the outcome of its first
// attempt — which a caller that overlaps first attempts (the load
// generator's pipelined worker) made itself, after earn — through the rest
// of the chain.
func (rp *retryPolicy) resume(name string, err error, attempt func() error) error {
	attempts := rp.MaxAttempts
	if attempts <= 0 {
		attempts = 1
	}
	for a := 1; err != nil; a++ {
		var remote *wire.RemoteError
		if !errors.As(err, &remote) {
			return err
		}
		if rp.CodeHook != nil {
			rp.CodeHook(remote.Code)
		}
		if !remote.Code.Retryable() {
			return err
		}
		if a >= attempts {
			return fmt.Errorf("client: %s: attempts exhausted: %w", name, err)
		}
		if rp.Budget != nil && !rp.Budget.take() {
			return fmt.Errorf("client: %s: retry budget exhausted: %w", name, err)
		}
		if rp.Retries != nil {
			rp.Retries.Add(1)
		}
		rp.sleepBackoff(a)
		err = attempt()
	}
	return nil
}

func (rp *retryPolicy) sleepBackoff(attempt int) {
	base := rp.BackoffBase
	if base <= 0 {
		base = time.Millisecond
	}
	ceil := base << uint(attempt-1)
	if limit := 100 * time.Millisecond; ceil > limit {
		ceil = limit
	}
	rp.mu.Lock()
	d := time.Duration(rp.rng.Int63n(int64(ceil) + 1))
	rp.mu.Unlock()
	time.Sleep(d)
}

// Client wraps a Pool with seeded-jitter retries on the protocol's
// retryable error codes.
type Client struct {
	pool *Pool
	retryPolicy
}

// NewClient builds a retrying client over pool. seed drives backoff
// jitter deterministically.
func NewClient(pool *Pool, seed int64) *Client {
	return &Client{pool: pool, retryPolicy: retryPolicy{
		MaxAttempts: 8, BackoffBase: time.Millisecond,
		rng: rand.New(rand.NewSource(seed))}}
}

// Do runs fn as one transaction attempt of the named type: Begin, fn,
// Commit, retrying the whole sequence (with exponential full-jitter
// backoff) when the failure is retryable — overload backpressure, a shed
// or infeasible rejection, an optimistic abort, or a firm-deadline miss.
// fn gets a live connection with the transaction begun; returning an
// error aborts the attempt.
func (cl *Client) Do(name string, fn func(c *Conn) error) error {
	return cl.DoDeadline(name, 0, fn)
}

// DoDeadline is Do with a firm deadline budget attached to the BEGIN (see
// Conn.BeginBudget); budget <= 0 is plain Do. Retries reuse the same
// budget value — the server re-evaluates feasibility per attempt.
func (cl *Client) DoDeadline(name string, budget time.Duration, fn func(c *Conn) error) error {
	return cl.run(name, func() error { return cl.attempt(name, budget, fn) })
}

func (cl *Client) attempt(name string, budget time.Duration, fn func(c *Conn) error) error {
	c, err := cl.pool.Get()
	if err != nil {
		return err
	}
	defer cl.pool.Put(c)
	if _, err := c.BeginBudget(name, budget); err != nil {
		return err
	}
	if err := fn(c); err != nil {
		// The server ends the transaction on every ERR reply; only a
		// non-protocol failure inside fn leaves one to abort.
		var remote *wire.RemoteError
		if !errors.As(err, &remote) && !c.Broken() {
			_ = c.Abort()
		}
		return err
	}
	return c.Commit()
}
