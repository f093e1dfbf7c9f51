package server

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pcpda/internal/client"
	"pcpda/internal/nemesis"
	"pcpda/internal/rt"
	"pcpda/internal/rtm"
	"pcpda/internal/txn"
	"pcpda/internal/wire"
)

// --- admission gate (unit) ---------------------------------------------------

// jammedGate is a gate whose one slot is taken, so every arrival waits or is
// refused; shed is the counter it moves.
func jammedGate(t *testing.T, depth, highWater int) (q *admitQueue, shed *atomic.Int64) {
	t.Helper()
	shed = new(atomic.Int64)
	q = newAdmitQueue(1, depth, highWater, shed)
	if err := q.acquire(context.Background(), 0); err != nil {
		t.Fatalf("first arrival at an idle gate: %v", err)
	}
	return q, shed
}

// arrive runs acquire for an arrival of priority pri in the background and
// returns, once the arrival has queued or been answered, the channel its
// one verdict arrives on.
func arrive(t *testing.T, ctx context.Context, q *admitQueue, pri rt.Priority) <-chan error {
	t.Helper()
	arrivals := func() uint64 {
		q.mu.Lock()
		defer q.mu.Unlock()
		return q.seq
	}
	before, verdict := arrivals(), make(chan error, 1)
	go func() { verdict <- q.acquire(ctx, pri) }()
	waitFor(t, "the arrival to queue or be answered", func() bool { return arrivals() > before || len(verdict) > 0 })
	return verdict
}

// verdictOf waits for an arrival's verdict.
func verdictOf(t *testing.T, who string, verdict <-chan error) error {
	t.Helper()
	select {
	case err := <-verdict:
		return err
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: no verdict", who)
		return nil
	}
}

// freeSlots is how many of the gate's slots nobody holds.
func freeSlots(q *admitQueue) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.free
}

// slotsHeld is how many of the server's admission slots are taken.
func slotsHeld(srv *Server) int { return srv.cfg.MaxAdmitting - freeSlots(srv.queue) }

func TestAdmitQueueOrdering(t *testing.T) {
	q, _ := jammedGate(t, 8, 6)
	bg := context.Background()
	waiting := map[string]<-chan error{
		"low-a": arrive(t, bg, q, 1), "hi-a": arrive(t, bg, q, 3), "mid": arrive(t, bg, q, 2),
	}
	waiting["low-b"] = arrive(t, bg, q, 1)
	waiting["hi-b"] = arrive(t, bg, q, 3)
	if n := q.depthNow(); n != 5 {
		t.Fatalf("depth = %d, want 5", n)
	}
	for i, want := range []string{"hi-a", "hi-b", "mid", "low-a", "low-b"} {
		q.release()
		if err := verdictOf(t, want, waiting[want]); err != nil {
			t.Fatalf("slot order[%d]: %s got %v, want the slot (priority desc, FIFO within)", i, want, err)
		}
		delete(waiting, want)
		for name, v := range waiting {
			if len(v) != 0 {
				t.Fatalf("slot order[%d]: %s answered alongside %s", i, name, want)
			}
		}
	}
}

func TestAdmitQueueDisplacement(t *testing.T) {
	q, shed := jammedGate(t, 2, 2)
	bg := context.Background()
	lowA, lowB := arrive(t, bg, q, 1), arrive(t, bg, q, 1)
	// Equal priority cannot displace: plain overload.
	if err := verdictOf(t, "low-c", arrive(t, bg, q, 1)); err != errQueueFull {
		t.Fatalf("equal-priority arrival into full queue: err=%v, want errQueueFull", err)
	}
	// Higher priority displaces the lowest, latest-arrived waiter.
	hi := arrive(t, bg, q, 3)
	if err := verdictOf(t, "low-b", lowB); err != errShed || len(lowA) != 0 {
		t.Fatalf("displacement: low-b got %v (low-a answered: %v), want low-b shed", err, len(lowA) != 0)
	}
	if got := shed.Load(); got != 1 {
		t.Fatalf("shed counter = %d after one displacement, want 1", got)
	}
	q.release()
	if err := verdictOf(t, "hi", hi); err != nil || len(lowA) != 0 {
		t.Fatalf("after displacement: hi got %v (low-a answered: %v), want hi first", err, len(lowA) != 0)
	}
	q.release()
	if err := verdictOf(t, "low-a", lowA); err != nil {
		t.Fatalf("after displacement: low-a got %v, want the slot", err)
	}
}

func TestAdmitQueueHighWaterShed(t *testing.T) {
	q, shed := jammedGate(t, 8, 2)
	bg := context.Background()
	arrive(t, bg, q, 2)
	arrive(t, bg, q, 2)
	// At the high-water mark and strictly below everything waiting: shed on
	// arrival even though the queue has room.
	if err := verdictOf(t, "low", arrive(t, bg, q, 1)); err != errShed || shed.Load() != 1 {
		t.Fatalf("below-min arrival past high water: err=%v shed=%d, want errShed counted once", err, shed.Load())
	}
	// Equal to the waiting minimum still rides along (FIFO fairness within a
	// priority is preserved; only strictly-lower work is refused early).
	if v := arrive(t, bg, q, 2); len(v) != 0 {
		t.Fatalf("equal-priority arrival past high water: %v", <-v)
	}
	if n := q.depthNow(); n != 3 {
		t.Fatalf("depth = %d, want 3", n)
	}
}

func TestAdmitQueueWaitEstimate(t *testing.T) {
	q, _ := jammedGate(t, 8, 4)
	if got := q.estimateWait(); got != 0 {
		t.Fatalf("empty queue estimate %v, want 0", got)
	}
	// Seed the EWMA as if recent arrivals waited 100ms, with occupancy 4
	// (= high water): the estimate must be the full EWMA.
	q.ewmaWaitNs.Store(int64(100 * time.Millisecond))
	ctx, cancel := context.WithCancel(context.Background())
	var gone []<-chan error
	for i := 0; i < 3; i++ {
		gone = append(gone, arrive(t, ctx, q, 2))
	}
	arrive(t, context.Background(), q, 2)
	if got := q.estimateWait(); got != 100*time.Millisecond {
		t.Fatalf("estimate at high water = %v, want 100ms", got)
	}
	// Occupancy scaling: a single waiter after the overload clears (three
	// sessions died waiting) estimates far lower — a stale-high EWMA cannot
	// wedge admission shut.
	cancel()
	for _, v := range gone {
		if err := verdictOf(t, "cancelled waiter", v); err != context.Canceled {
			t.Fatalf("cancelled waiter got %v, want context.Canceled", err)
		}
	}
	if got := q.estimateWait(); got >= 100*time.Millisecond/2 {
		t.Fatalf("estimate at occupancy 1 = %v, want well under the 100ms EWMA", got)
	}
}

// TestWaitEstimateCountsTheWaitForASlot: what the estimator is told is the
// time from arrival to slot, measured when the slot is handed over — a
// waiter behind jammed slots for 100 ms moves the average by an eighth of
// that, not by the near-zero time it spent being sorted.
func TestWaitEstimateCountsTheWaitForASlot(t *testing.T) {
	q, _ := jammedGate(t, 8, 6)
	const jam = 100 * time.Millisecond
	start := time.Now()
	w := arrive(t, context.Background(), q, 1)
	time.Sleep(jam)
	q.release()
	if err := verdictOf(t, "the waiter", w); err != nil {
		t.Fatal(err)
	}
	waited := time.Since(start)
	if got := time.Duration(q.ewmaWaitNs.Load()); got < jam/8 || got > waited/8 {
		t.Fatalf("wait estimate after one %v wait for a slot = %v, want within [%v, %v]", waited, got, jam/8, waited/8)
	}
}

// --- shed and infeasible, end to end -----------------------------------------

// jamAdmission wedges admission so arriving BEGINs stay queued: the holder
// owns zonly's template slot and one more zonly BEGIN is parked in the
// manager on it, holding the MaxAdmitting=1 admission slot. Returns the
// holder (abort it to unwind) and the sacrificial conn.
func jamAdmission(t *testing.T, addr string, srv *Server, mgr *rtm.Manager) (holder, parked *client.PipeConn) {
	t.Helper()
	holder = mustDial(t, addr)
	if _, err := holder.Begin("zonly"); err != nil {
		t.Fatal(err)
	}
	parked = mustDial(t, addr)
	go func() { _, _ = parked.Begin("zonly") }()
	waitFor(t, "the admission slot's holder to park", func() bool {
		return mgr.ParkedWaiters() == 1 && slotsHeld(srv) == 1
	})
	return holder, parked
}

// TestShedUnderBurst drives the full priority-shedding matrix through the
// wire: at-arrival shed past the high-water mark, queue-full overload for
// non-outranking work, and displacement of queued low-priority work by a
// high-priority burst — priorities honored end to end.
func TestShedUnderBurst(t *testing.T) {
	mgr, _ := rtm.New(testSet(t))
	addr, srv := startServer(t, mgr, Config{
		QueueDepth: 4, HighWater: 1, MaxAdmitting: 1,
	})
	holder, parked := jamAdmission(t, addr, srv, mgr)
	defer func() { _ = holder.Close(); _ = parked.Close() }()

	// Queue up two updaters (priority 2): past the high-water mark (1) but
	// with queue room (depth 4) to spare.
	type pending struct {
		c   *client.PipeConn
		err chan error
	}
	var updaters []pending
	addUpdater := func() {
		t.Helper()
		p := pending{c: mustDial(t, addr), err: make(chan error, 1)}
		go func() { _, err := p.c.Begin("updater"); p.err <- err }()
		updaters = append(updaters, p)
		waitFor(t, "updater queued", func() bool { return srv.queue.depthNow() == len(updaters) })
	}
	addUpdater()
	addUpdater()

	// Past the high-water mark, a zonly (priority 1, strictly below every
	// queued updater) is shed at arrival — synchronously, with room left.
	low := mustDial(t, addr)
	defer func() { _ = low.Close() }()
	if _, err := low.Begin("zonly"); !wire.IsCode(err, wire.CodeShed) {
		t.Fatalf("low-priority BEGIN past high water: %v, want CodeShed", err)
	}
	if h := srv.Health(); h != "degraded" {
		t.Fatalf("health after shed = %q, want degraded", h)
	}

	// Fill the rest of the queue with updaters.
	addUpdater()
	addUpdater()

	// The queue is now full of updaters. Another updater cannot displace
	// an equal: plain overload.
	eq := mustDial(t, addr)
	defer func() { _ = eq.Close() }()
	if _, err := eq.Begin("updater"); !wire.IsCode(err, wire.CodeOverload) {
		t.Fatalf("equal-priority BEGIN into full queue: %v, want CodeOverload", err)
	}

	// A reader (priority 3) outranks the queued updaters: it displaces the
	// last-queued one, which gets CodeShed delivered to its session.
	rd := pending{c: mustDial(t, addr), err: make(chan error, 1)}
	defer func() { _ = rd.c.Close() }()
	go func() { _, err := rd.c.Begin("reader"); rd.err <- err }()
	select {
	case err := <-updaters[3].err:
		if !wire.IsCode(err, wire.CodeShed) {
			t.Fatalf("displaced updater: %v, want CodeShed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("displacement victim never got its CodeShed")
	}
	if got := srv.Counters().Shed.Load(); got != 2 {
		t.Fatalf("shed counter = %d, want 2 (one at-arrival, one displaced)", got)
	}

	// Unwind: free zonly's slot. The parked zonly inherits it and gives its
	// admission slot up, and the queued work moves.
	if err := holder.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := <-rd.err; err != nil {
		t.Fatalf("displacing reader was never admitted: %v", err)
	}
	// The surviving updaters are admitted in FIFO order; each holds the
	// single updater instance slot, so retire each (disconnect auto-abort)
	// before expecting the next.
	for i := 0; i < 3; i++ {
		if err := <-updaters[i].err; err != nil {
			t.Fatalf("queued updater %d: %v", i, err)
		}
		_ = updaters[i].c.Close()
	}
	waitFor(t, "admission pipeline to empty", func() bool { return srv.pending.Load() == 0 })
}

// TestInfeasibleRejected: with a high queue-wait estimate, a firm-deadline
// BEGIN whose budget the wait already breaks is refused with
// CodeInfeasible before touching the queue; a roomy budget still queues.
func TestInfeasibleRejected(t *testing.T) {
	mgr, _ := rtm.New(testSet(t))
	addr, srv := startServer(t, mgr, Config{
		QueueDepth: 4, HighWater: 1, MaxAdmitting: 1,
	})
	holder, parked := jamAdmission(t, addr, srv, mgr)

	// One queued request gives nonzero occupancy; the seeded EWMA says
	// recent arrivals waited 200ms.
	q := pendingBegin(t, addr, "updater")
	waitFor(t, "occupancy", func() bool { return srv.queue.depthNow() == 1 })
	srv.queue.ewmaWaitNs.Store(int64(200 * time.Millisecond))

	c := mustDial(t, addr)
	defer func() { _ = c.Close() }()
	if _, err := c.BeginBudget("reader", 50*time.Millisecond); !wire.IsCode(err, wire.CodeInfeasible) {
		t.Fatalf("50ms budget against a 200ms wait estimate: %v, want CodeInfeasible", err)
	}
	if got := srv.Counters().RejectedInfeasible.Load(); got != 1 {
		t.Fatalf("RejectedInfeasible = %d, want 1", got)
	}
	// A budget with room above the estimate is admitted normally.
	ok := pendingBegin(t, addr, "reader")
	waitFor(t, "feasible budget queued", func() bool { return srv.queue.depthNow() == 2 })

	if err := holder.Abort(); err != nil {
		t.Fatal(err)
	}
	for _, conn := range []*client.PipeConn{parked, q, ok, holder, c} {
		_ = conn.Close()
	}
	waitFor(t, "admission pipeline to empty", func() bool { return srv.pending.Load() == 0 })
}

// pendingBegin fires a BEGIN (with a generous deadline budget) in the
// background and returns the conn; the caller closes it to abandon.
func pendingBegin(t *testing.T, addr, name string) *client.PipeConn {
	t.Helper()
	c := mustDial(t, addr)
	go func() { _, _ = c.BeginBudget(name, 10*time.Second) }()
	return c
}

// TestAdmissionOrderIsGlobalAtDefaultConfig: at the shipped configuration —
// nothing set but the queue's depth — shedding, Health's mark and the order
// of admission hold over all sessions together. Every queued BEGIN comes
// from every second session accepted and the sessions in between stay idle,
// so an admission path that kept a queue per group of sessions would see the
// idle ones' queue empty; with one queue it cannot matter which session a
// BEGIN came from. Admission is jammed (MaxAdmitting BEGINs parked on a held
// template slot), BEGINs queue up to HighWater in scrambled order with the
// lowest-priority one first — a gate that let any request leave the queue
// before it had a slot would take that one — the session accepted next sends
// one that ranks below them all, and when the slot frees the job ids —
// handed out in admission order — must run with the priorities.
func TestAdmissionOrderIsGlobalAtDefaultConfig(t *testing.T) {
	const depth = 32
	set := txn.NewSet("wide")
	w := set.Catalog.Intern("w")
	for i := 0; i < depth; i++ { // index order is priority order, highest first
		set.Add(&txn.Template{Name: fmt.Sprintf("p%02d", i), Steps: []txn.Step{txn.Write(w)}})
	}
	set.Add(&txn.Template{Name: "jam", Steps: []txn.Step{txn.Write(w)}})
	set.Add(&txn.Template{Name: "low", Steps: []txn.Step{txn.Write(w)}})
	set.AssignByIndex()
	mgr, err := rtm.New(set)
	if err != nil {
		t.Fatal(err)
	}
	addr, srv := startServer(t, mgr, Config{QueueDepth: depth})
	highWater, admitting := srv.cfg.HighWater, srv.cfg.MaxAdmitting

	var conns []*client.PipeConn
	defer func() {
		for _, c := range conns {
			_ = c.Close()
		}
	}()
	var spare *client.PipeConn // the idle session accepted after the last one dial returned
	dial := func() *client.PipeConn {
		c := mustDial(t, addr)
		spare = mustDial(t, addr)
		conns = append(conns, c, spare)
		return c
	}

	holder := dial()
	if _, err := holder.Begin("jam"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < admitting; i++ {
		c := dial()
		go func() { _, _ = c.Begin("jam") }()
	}
	waitFor(t, "every admission slot to park on jam's template slot", func() bool {
		return mgr.ParkedWaiters() == admitting && slotsHeld(srv) == admitting
	})

	ids := make([]chan uint64, highWater)
	begin := func(i int) {
		c, got := dial(), make(chan uint64, 1)
		ids[i] = got
		go func() {
			id, err := c.Begin(fmt.Sprintf("p%02d", i))
			if err != nil {
				t.Errorf("queued BEGIN p%02d: %v", i, err)
			}
			got <- id
		}()
	}
	order := append([]int{highWater - 1}, rand.New(rand.NewSource(27)).Perm(highWater-1)...)
	for n, i := range order {
		if n == highWater-1 {
			if h := srv.Health(); h != "ok" {
				t.Fatalf("health at occupancy %d of high water %d = %q, want ok", n, highWater, h)
			}
		}
		begin(i)
		waitFor(t, fmt.Sprintf("BEGIN %d of %d to queue", n+1, highWater), func() bool {
			return srv.queue.depthNow() == n+1
		})
	}
	if h := srv.Health(); h != "degraded" {
		t.Fatalf("health at occupancy %d = high water = %q, want degraded", highWater, h)
	}
	if _, err := spare.Begin("low"); !wire.IsCode(err, wire.CodeShed) {
		t.Fatalf("lowest-priority BEGIN from an idle session at high water: %v, want CodeShed", err)
	}
	if got, d := srv.Counters().Shed.Load(), srv.queue.depthNow(); got != 1 || d != highWater {
		t.Fatalf("shed = %d, occupancy = %d after the refusal, want 1 and %d", got, d, highWater)
	}

	if err := holder.Abort(); err != nil {
		t.Fatal(err)
	}
	var last uint64
	for i, got := range ids {
		select {
		case id := <-got:
			if i > 0 && id <= last {
				t.Fatalf("p%02d (job %d) was admitted before p%02d (job %d), which outranks it", i, id, i-1, last)
			}
			last = id
		case <-time.After(5 * time.Second):
			t.Fatalf("queued BEGIN p%02d was never answered", i)
		}
	}
}

// TestQueuedBeginDoesNotWaitForAnotherTemplatesSlot: a queued BEGIN is
// delayed by the wait for an admission slot and, once it has one, by its own
// template's slot — never by the template slot of a lower-priority BEGIN
// queued beside it. Both admission slots are parked on held templates, three
// BEGINs queue (jamA, low, high — low's template is held live too), and the
// first slot to come back must deliver high's BEGIN_OK while low's holder is
// still live.
func TestQueuedBeginDoesNotWaitForAnotherTemplatesSlot(t *testing.T) {
	set := txn.NewSet("four")
	w := set.Catalog.Intern("w")
	for _, name := range []string{"high", "low", "jamA", "jamB"} { // index order is priority order
		set.Add(&txn.Template{Name: name, Steps: []txn.Step{txn.Write(w)}})
	}
	set.AssignByIndex()
	mgr, err := rtm.New(set)
	if err != nil {
		t.Fatal(err)
	}
	addr, srv := startServer(t, mgr, Config{MaxAdmitting: 2})

	holders := map[string]*client.PipeConn{}
	for _, name := range []string{"low", "jamA", "jamB"} {
		c := mustDial(t, addr)
		defer func() { _ = c.Close() }()
		if _, err := c.Begin(name); err != nil {
			t.Fatal(err)
		}
		holders[name] = c
	}
	begin := func(name string) <-chan error {
		c, done := mustDial(t, addr), make(chan error, 1)
		t.Cleanup(func() { _ = c.Close() })
		go func() { _, err := c.Begin(name); done <- err }()
		return done
	}
	begin("jamA")
	begin("jamB")
	waitFor(t, "both admission slots to park on jamA's and jamB's template slots", func() bool {
		return mgr.ParkedWaiters() == 2 && slotsHeld(srv) == 2
	})
	var high <-chan error
	for n, name := range []string{"jamA", "low", "high"} {
		high = begin(name)
		waitFor(t, name+" to queue", func() bool { return srv.queue.depthNow() == n+1 })
	}

	if err := holders["jamB"].Abort(); err != nil {
		t.Fatal(err)
	}
	if err := holders["jamA"].Abort(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-high:
		if err != nil {
			t.Fatalf("high's BEGIN: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("high's BEGIN still unanswered 2 s after admission slots freed: it is waiting for low's template slot")
	}
	if err := holders["low"].Commit(); err != nil {
		t.Fatalf("low's holder was not live when high was answered: %v", err)
	}
}

// --- watchdog ----------------------------------------------------------------

// TestWatchdogTripsIdleTxn: watchdog-first order. A transaction sits idle
// holding its template slot past deadline+grace, or past StuckTxnAge with
// no deadline at all; the watchdog force-aborts it with one log line, the
// manager goes quiescent, and the session survives to report a retryable
// CodeDeadline and start fresh work.
func TestWatchdogTripsIdleTxn(t *testing.T) {
	rows := []struct {
		name   string
		cfg    Config
		budget time.Duration // 0: a plain BEGIN, no deadline
	}{
		{"past budget and grace", Config{WatchdogGrace: 10 * time.Millisecond}, 20 * time.Millisecond},
		{"past StuckTxnAge, no budget", Config{StuckTxnAge: 20 * time.Millisecond}, 0},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) { watchdogTripsIdleTxn(t, row.cfg, row.budget) })
	}
}

func watchdogTripsIdleTxn(t *testing.T, cfg Config, budget time.Duration) {
	set := testSet(t)
	mgr, _ := rtm.New(set)
	var logMu sync.Mutex
	var lines []string
	cfg.WatchdogInterval = 2 * time.Millisecond
	cfg.Logf = func(format string, args ...any) {
		logMu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		logMu.Unlock()
	}
	addr, srv := startServer(t, mgr, cfg)
	c := mustDial(t, addr)
	defer func() { _ = c.Close() }()
	if _, err := c.BeginBudget("updater", budget); err != nil {
		t.Fatal(err)
	}
	// The trip is counted before its line is logged: wait for the line.
	var trips []string
	waitFor(t, "watchdog trip", func() bool {
		logMu.Lock()
		defer logMu.Unlock()
		trips = trips[:0]
		for _, l := range lines {
			if strings.HasPrefix(l, "watchdog: force-aborted") {
				trips = append(trips, l)
			}
		}
		return len(trips) > 0
	})
	if len(trips) != 1 || srv.Counters().WatchdogTrips.Load() != 1 || strings.Contains(trips[0], "2562047h") {
		t.Fatalf("watchdog trip lines = %q, want one with a sane deadline", trips)
	}
	waitFor(t, "manager quiescent", func() bool { return mgr.Stats().Live == 0 })
	if err := mgr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := srv.Counters().WatchdogAuditFails.Load(); got != 0 {
		t.Fatalf("watchdog audit failures: %d", got)
	}
	// The session is alive; its next touch of the dead transaction reports
	// the force-abort as a retryable deadline miss.
	if err := c.Write(item(t, set, "x"), 1); !wire.IsCode(err, wire.CodeDeadline) {
		t.Fatalf("write after watchdog trip: %v, want CodeDeadline", err)
	}
	if n := srv.txCtxMade.Load(); n != 0 {
		t.Fatalf("%d contexts built for a transaction that never parked: the trip must not need one", n)
	}
	if _, err := c.Begin("updater"); err != nil {
		t.Fatalf("session must survive a watchdog trip: %v", err)
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestWatchdogUnparksStuckCommit: the stuck transaction is parked inside
// the manager (commit waiting out a stale reader), where no socket timeout
// can reach it. The watchdog's context cancellation unwinds the park; the
// unaffected reader still commits.
func TestWatchdogUnparksStuckCommit(t *testing.T) {
	set := testSet(t)
	mgr, _ := rtm.New(set)
	addr, srv := startServer(t, mgr, Config{
		WatchdogInterval: 2 * time.Millisecond, WatchdogGrace: 20 * time.Millisecond,
	})
	x, y := item(t, set, "x"), item(t, set, "y")

	up := mustDial(t, addr)
	defer func() { _ = up.Close() }()
	if _, err := up.BeginBudget("updater", 30*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := up.Write(x, 5); err != nil {
		t.Fatal(err)
	}
	rd := mustDial(t, addr)
	defer func() { _ = rd.Close() }()
	if _, err := rd.Begin("reader"); err != nil {
		t.Fatal(err)
	}
	if _, err := rd.Read(x); err != nil { // stale read through the write lock
		t.Fatal(err)
	}
	commitErr := make(chan error, 1)
	go func() { commitErr <- up.Commit() }()
	waitFor(t, "commit to park", func() bool { return mgr.ParkedWaiters() > 0 })

	// The reader never finishes on its own; the watchdog must unpark the
	// committer once deadline+grace passes.
	if err := <-commitErr; !wire.IsCode(err, wire.CodeDeadline) {
		t.Fatalf("parked commit after watchdog trip: %v, want CodeDeadline", err)
	}
	if got := srv.Counters().WatchdogTrips.Load(); got < 1 {
		t.Fatalf("watchdog trips = %d, want >= 1", got)
	}
	if _, err := rd.Read(y); err != nil {
		t.Fatal(err)
	}
	if err := rd.Commit(); err != nil {
		t.Fatalf("innocent reader after watchdog trip: %v", err)
	}
	waitFor(t, "manager quiescent", func() bool { return mgr.Stats().Live == 0 })
	if v := mgr.ReadCommitted(0); v != 0 {
		t.Fatalf("force-aborted write leaked: x = %v", v)
	}
}

// TestWatchdogCommitRace races normal commits against watchdog
// force-aborts in both orders — commits landing before, around, and after
// deadline+grace — under -race. Every outcome must be CommitOK or
// CodeDeadline, and the manager must end clean.
func TestWatchdogCommitRace(t *testing.T) {
	set := testSet(t)
	mgr, _ := rtm.New(set)
	addr, srv := startServer(t, mgr, Config{
		WatchdogInterval: time.Millisecond, WatchdogGrace: 5 * time.Millisecond,
	})
	c := mustDial(t, addr)
	defer func() { _ = c.Close() }()
	x := item(t, set, "x")
	rng := rand.New(rand.NewSource(11))

	var commits, trips int
	for i := 0; i < 40; i++ {
		if _, err := c.BeginBudget("updater", 8*time.Millisecond); err != nil {
			t.Fatalf("iter %d begin: %v", i, err)
		}
		werr := c.Write(x, int64(i))
		if werr == nil {
			// Sleep 0–16ms: commits land on both sides of deadline+grace.
			time.Sleep(time.Duration(rng.Intn(16)) * time.Millisecond)
			werr = c.Commit()
		}
		switch {
		case werr == nil:
			commits++
		case wire.IsCode(werr, wire.CodeDeadline):
			trips++
		default:
			t.Fatalf("iter %d: %v — watchdog races must surface only as CodeDeadline", i, werr)
		}
	}
	t.Logf("watchdog race: %d commits, %d force-aborts", commits, trips)
	waitFor(t, "manager quiescent", func() bool { return mgr.Stats().Live == 0 })
	if err := mgr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := srv.Counters().WatchdogAuditFails.Load(); got != 0 {
		t.Fatalf("watchdog audit failures: %d", got)
	}
}

// --- slow-client defense and health ------------------------------------------

// TestSlowClientKill: a reply flushed into a pipe nobody drains must be
// cut off by the write deadline, counted, and cancel the session — it must
// never wedge the writer goroutine.
func TestSlowClientKill(t *testing.T) {
	mgr, _ := rtm.New(testSet(t))
	srv, err := New(Config{Manager: mgr, WriteTimeout: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	ours, theirs := net.Pipe()
	defer func() { _ = ours.Close(); _ = theirs.Close() }()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sess := &session{
		srv: srv, conn: theirs, ctx: ctx, cancel: cancel,
		outWake:    make(chan struct{}, 1),
		outSpace:   make(chan struct{}, 1),
		writerDone: make(chan struct{}),
	}
	go sess.writeLoop()

	start := time.Now()
	if err := sess.replyTo(request{}, &wire.Pong{Nonce: 1}); err != nil {
		t.Fatalf("replyTo must queue without error: %v", err)
	}
	// The flush into the stalled pipe hits the write deadline; the writer
	// classifies it as a slow client, counts it and cancels the session.
	<-sess.writerDone
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("writer blocked %v despite the write deadline", took)
	}
	if got := srv.Counters().SlowClientKills.Load(); got != 1 {
		t.Fatalf("SlowClientKills = %d, want 1", got)
	}
	if ctx.Err() == nil {
		t.Fatal("a write-deadline kill must cancel the session context")
	}
	// Replies attempted after the kill fail on the dead context instead of
	// piling onto a queue nobody will flush.
	if err := sess.replyTo(request{}, &wire.Pong{Nonce: 2}); err == nil {
		t.Fatal("replyTo after a slow-client kill must fail")
	}
}

// TestOpenLoopOverload pushes Poisson arrivals well past what the tiny
// server config can absorb and checks the overload machinery engages:
// work is shed or refused, the highest-priority tier keeps committing,
// and the drain audit (in the startServer cleanup) still comes back nil.
func TestOpenLoopOverload(t *testing.T) {
	mgr, _ := rtm.New(testSet(t))
	// A deliberately narrow server: queue of 6 (high water 4) against 32
	// workers, so contention parks pile BEGINs up past the shed threshold.
	addr, srv := startServer(t, mgr, Config{
		QueueDepth: 6, MaxAdmitting: 1,
		WatchdogInterval: 5 * time.Millisecond, WatchdogGrace: 50 * time.Millisecond,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	rep, err := client.RunLoad(ctx, client.LoadConfig{
		Addr: addr, Conns: 32, Seed: 3,
		ArrivalRate: 3000, Duration: 2 * time.Second, MaxInFlight: 64,
		DeadlineBudget: 50 * time.Millisecond, MaxAttempts: 2,
	})
	if err != nil {
		t.Fatalf("open-loop load: %v (report %+v)", err, rep)
	}
	t.Logf("open loop: offered=%d committed=%d on_time=%d shed=%d infeasible=%d overrun=%d suppressed=%d goodput=%.0f/s",
		rep.Offered, rep.Committed, rep.OnTime, rep.Shed, rep.Infeasible,
		rep.Overrun, rep.RetriesSuppressed, rep.Goodput())
	if rep.Offered == 0 || rep.Committed == 0 {
		t.Fatalf("degenerate run: %+v", rep)
	}
	if rep.OnTime > rep.Committed {
		t.Fatalf("on_time %d > committed %d", rep.OnTime, rep.Committed)
	}
	if len(rep.Tiers) != 3 {
		t.Fatalf("tiers: %+v", rep.Tiers)
	}
	// 3000/s offered against a narrow MaxAdmitting=1 server must overload:
	// some typed refusal (shed, infeasible or queue-full) shows up.
	snap := srv.Counters().Snapshot()
	if snap.Shed+snap.RejectedInfeasible+snap.RejectedOverload == 0 {
		t.Fatalf("no overload response at 3000/s offered: %+v", snap)
	}
	waitFor(t, "sessions idle", func() bool { return !srv.liveWork() })
	if err := mgr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestNemesisSoak is the acceptance scenario: 64 connections of open-loop
// load routed through a fault-injecting proxy — latency, resets, silent
// drops, one-way partitions — with firm deadlines and the watchdog armed.
// The server must keep committing, and the drain in the startServer
// cleanup must still end refuse→grace→force→audit with a nil audit.
//
// The load fails about 97 % of what it offers, and not because of the
// faults: each conversation holds its template's one slot across four or
// more relayed round trips, so 1 200 arrivals a second are far beyond what
// the proxy's latency alone lets three templates commit; the admission gate
// refuses most as infeasible, and the client drops the rest past its
// in-flight bound. A twin run through the same proxy with every fault rate
// zero fails as much, and the faults may cost at most half its commits.
func TestNemesisSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short")
	}
	faults := nemesis.Faults{
		Latency: time.Millisecond, Jitter: time.Millisecond,
		PReset: 0.08, PDrop: 0.08, PPartition: 0.04,
		// A connection here relays ~2.7 KB on average, so a planned
		// fault must fire within a few KB: with a 1–16 KB window
		// only 0–5 of ~100 connections faulted, and on a loaded
		// machine sometimes none. 256 B–4 KB fires 8–12.
		FaultAfterMin: 256, FaultAfterMax: 4096,
	}
	rep, st := nemesisSoak(t, faults)
	t.Logf("nemesis soak: offered=%d committed=%d on_time=%d failed=%d infeasible=%d overrun=%d | proxy conns=%d resets=%d drops=%d partitions=%d",
		rep.Offered, rep.Committed, rep.OnTime, rep.Failed, rep.Infeasible, rep.Overrun,
		st.Conns, st.Resets, st.Drops, st.Partitions)
	if st.Resets+st.Drops+st.Partitions == 0 {
		t.Fatalf("proxy injected no faults across %d conns — the soak tested nothing", st.Conns)
	}
	faults.PReset, faults.PDrop, faults.PPartition = 0, 0, 0
	twin, _ := nemesisSoak(t, faults)
	t.Logf("fault-free twin: offered=%d committed=%d failed=%d infeasible=%d overrun=%d",
		twin.Offered, twin.Committed, twin.Failed, twin.Infeasible, twin.Overrun)
	// Committed, failed and overrun add up to what was offered, so the
	// commits the faults cost are all the failures they add.
	if 2*rep.Committed < twin.Committed {
		t.Errorf("the faults cost more than half the fault-free commits: %d committed, %d without faults", rep.Committed, twin.Committed)
	}
}

// nemesisSoak offers TestNemesisSoak's load through a proxy with the given
// faults and returns the load report and the proxy's counters, after the
// server has come back to idle with a clean audit.
func nemesisSoak(t *testing.T, faults nemesis.Faults) (*client.LoadReport, nemesis.Stats) {
	t.Helper()
	mgr, _ := rtm.New(testSet(t))
	addr, srv := startServer(t, mgr, Config{
		QueueDepth: 128, WatchdogInterval: 10 * time.Millisecond,
		WatchdogGrace: 200 * time.Millisecond,
	})
	prox, err := nemesis.New(nemesis.Config{Listen: "127.0.0.1:0", Target: addr, Seed: 99, Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = prox.Close() }) // before the drain in startServer's cleanup

	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	rep, err := client.RunLoad(ctx, client.LoadConfig{
		Addr: prox.Addr().String(), Conns: 64, Seed: 13,
		ArrivalRate: 1200, Duration: 4 * time.Second,
		DeadlineBudget: 250 * time.Millisecond,
		OpTimeout:      2 * time.Second, MaxAttempts: 3,
	})
	if err != nil {
		t.Fatalf("nemesis soak load: %v (report %+v)", err, rep)
	}
	if rep.Committed == 0 {
		t.Fatalf("nothing committed through the proxy: %+v", rep)
	}
	// Sessions behind severed or partitioned connections unwind via
	// disconnect teardown, the watchdog, or drain's force phase; nothing
	// may remain live before the audit.
	waitFor(t, "sessions idle", func() bool { return !srv.liveWork() })
	if err := mgr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return rep, prox.Stats()
}

func TestHealthTransitions(t *testing.T) {
	mgr, _ := rtm.New(testSet(t))
	addr, srv := startServer(t, mgr, Config{HealthWindow: 60 * time.Millisecond})
	c := mustDial(t, addr)
	defer func() { _ = c.Close() }()

	if h := srv.Health(); h != "ok" {
		t.Fatalf("idle health = %q, want ok", h)
	}
	srv.noteOverload()
	if h := srv.Health(); h != "degraded" {
		t.Fatalf("health after overload event = %q, want degraded", h)
	}
	waitFor(t, "health to recover", func() bool { return srv.Health() == "ok" })
	srv.draining.Store(true) // Drain proper runs in cleanup
	if h := srv.Health(); h != "draining" {
		t.Fatalf("health while draining = %q, want draining", h)
	}
	srv.draining.Store(false)
}
