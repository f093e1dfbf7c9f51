// Package server exposes an rtm.Manager as a network transaction service.
//
// Each TCP connection is one session speaking the internal/wire protocol:
// HELLO handshake, then at most one live transaction at a time — a whole
// one per TXN frame, or one driven by BEGIN/READ/WRITE/COMMIT/ABORT — with
// PING usable throughout. Admission (a TXN's is a BEGIN's) is one gate the
// session's own goroutine passes through: MaxAdmitting slots, and a bounded
// queue, sorted by template priority, of the BEGINs waiting for one. A BEGIN
// that finds nothing waiting and a slot free takes it at once; otherwise it
// waits its turn, the most urgent first — or is refused: CodeOverload when
// the queue is full (backpressure instead of unbounded memory), CodeShed
// when it is the least urgent work past the high-water mark. The slot is
// held across the manager's Begin and released the moment it returns.
//
// The two liveness hazards of putting a blocking lock manager behind a
// socket are handled structurally:
//
//   - A client that disconnects while its transaction is parked inside the
//     manager (on a lock, on commit, or on a template slot) cannot be
//     reaped by reading the socket — the session goroutine is blocked in
//     the manager, not in a read. Each session therefore keeps a dedicated
//     reader goroutine whose only jobs are to feed requests and to cancel
//     the session context the moment the connection dies; every manager
//     call runs under that context, so the park unwinds with ErrCancelled
//     and the session auto-aborts its transaction on the way out.
//
//   - Drain first refuses new work (CodeDraining), waits out in-flight
//     transactions up to the caller's deadline, then cancels whatever is
//     left and proves cleanliness: CheckInvariants passes, no transaction
//     is live, no wait node is registered.
package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"pcpda/internal/metrics"
	"pcpda/internal/rtm"
	"pcpda/internal/wire"
)

// Config parameterizes a Server. Manager is required; zero values
// elsewhere select the defaults noted per field.
type Config struct {
	// Manager is the transaction manager the server fronts.
	Manager *rtm.Manager
	// Counters receives session and admission statistics. Allocated
	// internally when nil.
	Counters *metrics.ServerCounters
	// QueueDepth bounds the admission queue. A BEGIN arriving when the queue
	// is full is rejected with CodeOverload — unless it outranks queued
	// work, in which case the lowest-priority queued BEGIN is shed to make
	// room. Default 64.
	QueueDepth int
	// HighWater is the queue occupancy at which priority shedding starts:
	// at or past it, a BEGIN ranking below everything already queued is
	// refused with CodeShed instead of queueing. Default 3/4 of QueueDepth.
	HighWater int
	// MaxAdmitting is the number of admission slots: how many sessions may
	// be inside the manager's Begin at once. Arrivals beyond it wait in the
	// queue (and overflow to CodeOverload). Default 4.
	MaxAdmitting int
	// SessionInflight bounds one session's requests in flight: both the
	// requests decoded and not yet executed and the replies queued and not
	// yet written. A request is a frame, and a whole transaction is one TXN
	// frame, so for a client that submits transactions whole this is the
	// number of its transactions the server holds at once; for one driving
	// transactions a step at a time it counts steps. A client past the
	// bound sees TCP backpressure (the reader stops reading). Default 32.
	SessionInflight int
	// MaxConns, when positive, bounds concurrently attached sessions.
	// Accepts past the limit are refused at the socket — one CodeOverload
	// ERR at tag 0, then close — before any session state exists, so
	// a connection storm costs a write and a close, not three goroutines
	// each. CodeOverload is retryable: clients back off and redial.
	// Default 0 (unlimited).
	MaxConns int
	// IdleTimeout is the read deadline, re-armed before every read on the
	// socket: a session whose client sends nothing for this long is torn
	// down. Default 30s.
	IdleTimeout time.Duration
	// WriteTimeout is the per-flush write deadline: one writer flush — all
	// replies ready at the wakeup, coalesced into a single write — must
	// complete within it or the session is killed as a slow client.
	// Default 10s.
	WriteTimeout time.Duration
	// WatchdogInterval is how often the stuck-transaction watchdog sweeps
	// live transactions. Default 100ms; negative disables the watchdog.
	WatchdogInterval time.Duration
	// WatchdogGrace is how far past its firm deadline a live transaction
	// may run before the watchdog force-aborts it. Default 1s.
	WatchdogGrace time.Duration
	// StuckTxnAge, when positive, force-aborts any transaction — with or
	// without a firm deadline — live longer than this. Default 0 (off).
	StuckTxnAge time.Duration
	// HealthWindow is how long after the last overload event (shed,
	// infeasible or overload rejection) Health keeps reporting
	// "degraded". Default 5s.
	HealthWindow time.Duration
	// Logf, when set, receives one line per abnormal session end.
	Logf func(format string, args ...any)
}

func (c *Config) fill() error {
	if c.Manager == nil {
		return errors.New("server: Config.Manager is required")
	}
	if c.Counters == nil {
		c.Counters = &metrics.ServerCounters{}
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.HighWater <= 0 || c.HighWater > c.QueueDepth {
		c.HighWater = max(1, c.QueueDepth*3/4)
	}
	if c.MaxAdmitting <= 0 {
		c.MaxAdmitting = 4
	}
	if c.SessionInflight <= 0 {
		c.SessionInflight = 32
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 30 * time.Second
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 10 * time.Second
	}
	if c.WatchdogInterval == 0 {
		c.WatchdogInterval = 100 * time.Millisecond
	}
	if c.WatchdogGrace <= 0 {
		c.WatchdogGrace = time.Second
	}
	if c.HealthWindow <= 0 {
		c.HealthWindow = 5 * time.Second
	}
	return nil
}

// Server accepts connections and runs one session per connection over a
// shared rtm.Manager.
type Server struct {
	cfg Config
	mgr *rtm.Manager
	ctr *metrics.ServerCounters

	ctx    context.Context // lifetime of all sessions and the watchdog
	cancel context.CancelFunc

	queue    *admitQueue  //pcpda:guardedby immutable
	pending  atomic.Int64 // BEGINs at the gate or inside the manager's Begin, not yet resolved
	draining atomic.Bool

	// lastOverload is the unix-nano timestamp of the most recent shed,
	// infeasible or queue-full rejection; Health reports "degraded" for
	// HealthWindow after it.
	lastOverload atomic.Int64

	txCtxMade atomic.Int64 // contexts built because a manager call parked (liveTx.Done); tests read it

	mu       sync.Mutex
	ln       net.Listener
	sessions map[*session]struct{}

	sessWG     sync.WaitGroup // session goroutines
	watchdogWG sync.WaitGroup
}

// New builds a Server from cfg. Call Serve to start accepting.
func New(cfg Config) (*Server, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:      cfg,
		mgr:      cfg.Manager,
		ctr:      cfg.Counters,
		ctx:      ctx,
		cancel:   cancel,
		queue:    newAdmitQueue(cfg.MaxAdmitting, cfg.QueueDepth, cfg.HighWater, &cfg.Counters.Shed),
		sessions: make(map[*session]struct{}),
	}
	if cfg.WatchdogInterval > 0 {
		s.watchdogWG.Add(1)
		go s.watchdog()
	}
	return s, nil
}

// Counters returns the server's live counter set.
func (s *Server) Counters() *metrics.ServerCounters { return s.ctr }

// Serve accepts connections on ln until the listener closes (typically via
// Drain or Close). It always returns a non-nil error; after a clean
// shutdown that error wraps net.ErrClosed.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return fmt.Errorf("server: accept: %w", err)
		}
		if s.draining.Load() || s.ctx.Err() != nil {
			// Listener raced shutdown; refuse politely.
			_ = conn.Close()
			continue
		}
		if s.cfg.MaxConns > 0 && s.sessionCount() >= s.cfg.MaxConns {
			s.refuseConn(conn)
			continue
		}
		s.startSession(conn)
	}
}

func (s *Server) startSession(conn net.Conn) {
	ctx, cancel := context.WithCancel(s.ctx)
	sess := &session{
		srv: s, conn: conn, ctx: ctx, cancel: cancel,
		inWake:     make(chan struct{}, 1),
		inSpace:    make(chan struct{}, 1),
		outWake:    make(chan struct{}, 1),
		outSpace:   make(chan struct{}, 1),
		writerDone: make(chan struct{}),
	}
	s.mu.Lock()
	s.sessions[sess] = struct{}{}
	s.mu.Unlock()
	s.ctr.SessionsOpened.Add(1)
	s.sessWG.Add(1)
	go func() {
		defer s.sessWG.Done()
		sess.run()
	}()
}

// sessionCount returns the number of currently attached sessions.
func (s *Server) sessionCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// refuseConn rejects an accept that crossed MaxConns: one retryable ERR at
// tag 0 — the tag of the HELLO the client is about to send or has sent —
// under a short write deadline, then close. Run off the
// accept loop so a peer that never reads cannot stall further accepts.
func (s *Server) refuseConn(conn net.Conn) {
	s.ctr.RejectedConnLimit.Add(1)
	s.noteOverload()
	go func() {
		defer func() { _ = conn.Close() }()
		frame, err := wire.AppendTagged(nil, wire.Version, 0, &wire.ErrMsg{
			Code: wire.CodeOverload,
			Text: fmt.Sprintf("connection limit %d reached; retry later", s.cfg.MaxConns),
		})
		if err != nil {
			return
		}
		_ = conn.SetWriteDeadline(timeNow().Add(time.Second))
		_, _ = conn.Write(frame)
	}()
}

func (s *Server) removeSession(sess *session) {
	s.mu.Lock()
	delete(s.sessions, sess)
	s.mu.Unlock()
	s.ctr.SessionsClosed.Add(1)
}

// liveWork reports whether any BEGIN is in the admission pipeline or any
// session's transaction is live: not one the watchdog tripped (aborted, and
// kept by a session behind a partition until a request that never comes).
func (s *Server) liveWork() bool {
	if s.pending.Load() > 0 {
		return true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for sess := range s.sessions {
		if lt := sess.cur.Load(); lt != nil && !lt.tripped.Load() {
			return true
		}
	}
	return false
}

// noteOverload records that an overload decision (shed, infeasible or
// queue-full rejection) just happened; Health reports degraded for
// HealthWindow afterwards.
func (s *Server) noteOverload() {
	s.lastOverload.Store(timeNow().UnixNano())
}

// Health classifies the server's current state for the /healthz endpoint:
// "draining" once Drain has started, "degraded" while the admission queue
// sits at or past its high-water mark or within HealthWindow of the last
// shed/infeasible/overload rejection, otherwise "ok". Degraded is still
// serving — it tells operators (and load balancers that understand it)
// that low-priority work is being refused right now.
func (s *Server) Health() string {
	if s.draining.Load() {
		return "draining"
	}
	if s.queue.depthNow() >= s.cfg.HighWater {
		return "degraded"
	}
	if last := s.lastOverload.Load(); last != 0 &&
		timeNow().Sub(time.Unix(0, last)) < s.cfg.HealthWindow {
		return "degraded"
	}
	return "ok"
}

// Drain shuts the server down gracefully: stop accepting, refuse new
// BEGINs with CodeDraining, wait for in-flight transactions to commit or
// abort on their own until ctx expires, then cancel every remaining
// session (their transactions are aborted and counted as DrainAborted)
// and wait for all goroutines to exit.
//
// Drain then audits the manager and returns an error unless it is clean:
// CheckInvariants passes, zero transactions live, zero wait nodes
// registered. A nil return is the server's proof that no session leaked a
// lock, a workspace, or a parked waiter.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.mu.Lock()
	ln := s.ln
	s.mu.Unlock()
	if ln != nil {
		_ = ln.Close()
	}
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for s.liveWork() {
		select {
		case <-ctx.Done():
			goto force
		case <-tick.C:
		}
	}
force:
	s.cancel()
	s.sessWG.Wait()
	s.watchdogWG.Wait()
	if err := s.mgr.CheckInvariants(); err != nil {
		s.logf("drain: invariant audit failed: %v; last operations: %s", err, s.mgr.HistoryTail(flightTail))
		return fmt.Errorf("server: drain left manager dirty: %w", err)
	}
	if n := s.mgr.Stats().Live; n != 0 {
		return fmt.Errorf("server: drain left %d transactions live", n)
	}
	if n := s.mgr.ParkedWaiters(); n != 0 {
		return fmt.Errorf("server: drain left %d wait nodes registered", n)
	}
	return nil
}

// Close shuts down immediately: equivalent to Drain with an already
// expired deadline.
func (s *Server) Close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return s.Drain(ctx)
}

// flightTail is how many of the manager's newest retained operations a
// failed audit logs beside its violation (the whole window is on pcpdad's
// /debug/flight).
const flightTail = 64

// ShardStat is the admission queue's point-in-time state for /stats.
type ShardStat struct {
	Depth      int     `json:"depth"`        // current queue occupancy
	EWMAWaitMs float64 `json:"ewma_wait_ms"` // recent arrivals' wait for a slot, EWMA
}

// ShardStats snapshots the admission queue. One element: the name and the
// slice are what benchmark/probes.go:254 compiles against; ROADMAP 4(e)
// renames it with the probe.
func (s *Server) ShardStats() []ShardStat {
	return []ShardStat{{
		Depth:      s.queue.depthNow(),
		EWMAWaitMs: float64(s.queue.ewmaWaitNs.Load()) / 1e6,
	}}
}

// timeNow is indirected for deadline tests.
var timeNow = time.Now

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}
