package server

import (
	"errors"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pcpda/internal/rt"
	"pcpda/internal/rtm"
	"pcpda/internal/wire"
)

// admitReq is one BEGIN (or TXN's admission) travelling through the
// admission queue.
//
// The claim word arbitrates the race between a dispatcher delivering a
// result and the requesting session abandoning the wait (disconnect,
// drain): 0 = unclaimed, 1 = dispatcher delivering, 2 = session gone.
// Exactly one side wins the CAS from 0. If the dispatcher wins, the
// session is still listening (it only stops after a successful 0→2) and
// the buffered reply channel hands over the transaction; if the session
// wins, the dispatcher owns any admitted transaction and aborts it, so a
// handle is never stranded between the two goroutines. Shedding reuses the
// same protocol: the queue delivers errShed through the reply channel, so
// a stalled victim session can never block the shedder.
type admitReq struct {
	name     string
	pri      rt.Priority // template base priority; higher = more urgent
	seq      uint64      // queue arrival order, FIFO tiebreak within a priority
	enqueued time.Time   // when the request entered the queue (wait estimator)
	claim    atomic.Int32
	reply    chan admitResult // buffered(1); written at most once
}

type admitResult struct {
	tx  *rtm.Txn
	err error
}

const (
	claimFree      = 0
	claimDelivered = 1
	claimAbandoned = 2
)

// errShed is delivered to a queued BEGIN displaced (or refused at arrival)
// by the priority-shedding policy; sessions map it to wire.CodeShed.
var errShed = errors.New("server: shed as lowest-priority work past the admission high-water mark")

// errQueueFull is returned by enqueue when the queue is full and the
// arrival does not outrank any queued work; sessions map it to
// wire.CodeOverload.
var errQueueFull = errors.New("server: admission queue full")

// admitQueue is the server's one bounded, priority-ordered admission queue:
// every session's BEGIN that cannot be admitted inline waits here. It keeps
// requests sorted by (priority desc, arrival seq asc), so under pressure the
// dispatcher always admits the most urgent queued work next and the shedding
// policy always knows which request is the least urgent, whatever session
// either came from — PCP-DA's one priority order extended to the network
// edge, where the protocol itself cannot see yet.
//
// Shedding policy:
//
//   - Queue full: an arrival that outranks the lowest-priority queued
//     request displaces it (the victim's session gets errShed); an arrival
//     that does not is refused with errQueueFull.
//   - Queue at or past the high-water mark: an arrival strictly below
//     every queued priority is refused with errShed immediately — it would
//     be the first displaced anyway, and refusing it early keeps the
//     remaining headroom for work that ranks.
//
// Same-priority requests keep FIFO order, which also preserves the
// per-template FIFO order splitDistinct relies on (one template has one
// priority).
type admitQueue struct {
	mu    sync.Mutex
	items []*admitReq //pcpda:guardedby mu — sorted: priority desc, seq asc
	seq   uint64      //pcpda:guardedby mu

	depth     int //pcpda:guardedby immutable
	highWater int //pcpda:guardedby immutable

	wake chan struct{} // buffered(1); signals the dispatcher

	// ewmaWaitNs estimates the queue wait of recently dispatched requests
	// (exponential moving average, α = 1/8). estimateWait scales it by the
	// current occupancy so the estimate self-corrects downward as soon as
	// the queue drains — a stale-high estimate can never wedge admission
	// shut, because an empty queue always estimates near zero, gets work
	// admitted, and refreshes the average.
	ewmaWaitNs atomic.Int64
}

func newAdmitQueue(depth, highWater int) *admitQueue {
	return &admitQueue{depth: depth, highWater: highWater, wake: make(chan struct{}, 1)}
}

// enqueue files r, applying the shedding policy. It returns the displaced
// victim (to be failed with errShed by the caller) and/or an error for r
// itself; exactly one of (queued, err) outcomes holds for r.
func (q *admitQueue) enqueue(r *admitReq) (victim *admitReq, err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := len(q.items)
	if n >= q.depth {
		low := q.items[n-1] // lowest priority, latest arrival
		if r.pri <= low.pri {
			return nil, errQueueFull
		}
		q.items = q.items[:n-1]
		victim = low
	} else if n >= q.highWater && n > 0 && r.pri < q.items[n-1].pri {
		return nil, errShed
	}
	r.seq = q.seq
	q.seq++
	r.enqueued = time.Now()
	// Insertion point: after every request with priority >= r.pri.
	i := len(q.items)
	for i > 0 && q.items[i-1].pri < r.pri {
		i--
	}
	q.items = append(q.items, nil)
	copy(q.items[i+1:], q.items[i:])
	q.items[i] = r
	nudge(q.wake)
	return victim, nil
}

// pop removes up to max requests in priority order and feeds the wait
// estimator with their observed queue delays.
func (q *admitQueue) pop(max int) []*admitReq {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.items) == 0 {
		return nil
	}
	k := min(max, len(q.items))
	out := make([]*admitReq, k)
	copy(out, q.items[:k])
	rest := copy(q.items, q.items[k:])
	for i := rest; i < len(q.items); i++ {
		q.items[i] = nil
	}
	q.items = q.items[:rest]
	now := time.Now()
	for _, r := range out {
		q.noteWait(now.Sub(r.enqueued).Nanoseconds())
	}
	return out
}

// noteWait feeds one dispatched request's queue delay to the wait
// estimator. Caller holds q.mu.
func (q *admitQueue) noteWait(ns int64) {
	old := q.ewmaWaitNs.Load()
	q.ewmaWaitNs.Store(old - old/8 + ns/8)
}

// tryBypass claims an admission slot for an arrival that has nothing to be
// rationed against: the queue is empty and sem has a free slot at this
// instant. Both are decided under q.mu, so no request can be queued
// between the check and the claim — the arrival is exactly the request a
// dispatcher would have popped alone, with zero queue wait (which the
// estimator is told). On true the caller owns one sem slot.
func (q *admitQueue) tryBypass(sem chan struct{}) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.items) != 0 {
		return false
	}
	select {
	case sem <- struct{}{}:
	default:
		return false
	}
	q.noteWait(0)
	return true
}

// drainAll empties the queue (server shutdown); the caller fails the
// returned requests.
func (q *admitQueue) drainAll() []*admitReq {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := q.items
	q.items = nil
	return out
}

// depthNow returns the current queue length.
func (q *admitQueue) depthNow() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

// estimateWait predicts the queue wait a new arrival would see: the
// recent-dispatch EWMA scaled by current occupancy. Deliberately cheap and
// conservative-low when the queue is empty; admission control only needs
// it to be honest under sustained pressure, where occupancy is high and
// the EWMA is fresh.
func (q *admitQueue) estimateWait() time.Duration {
	q.mu.Lock()
	occ := len(q.items)
	q.mu.Unlock()
	if occ == 0 {
		return 0
	}
	est := q.ewmaWaitNs.Load() * int64(occ+1) / int64(q.highWater+1)
	return time.Duration(est)
}

// begin is the admission a BEGIN and a TXN share, run in the session's
// exec goroutine: validate state, apply deadline-aware admission control,
// then admit — inline when there is nothing to ration (see beginInline),
// otherwise by enqueueing onto the bounded priority queue (applying the
// shedding policy) and waiting for the dispatcher's verdict or session
// death. It returns with the transaction armed as s.lt (both results nil),
// with the ERR that refuses the request for the caller to send, or with the
// error that ends the session.
func (s *session) begin(name string, budgetMs uint32, readOnly bool) (*wire.ErrMsg, error) {
	if s.lt != nil {
		return refuse(wire.CodeState, "BEGIN or TXN with a transaction already live"), nil
	}
	if s.srv.draining.Load() {
		return refuse(wire.CodeDraining, "server draining"), nil
	}
	if readOnly {
		return s.beginRO(), nil
	}
	tmpl := s.srv.mgr.Set().ByName(name)
	if tmpl == nil {
		// The name is the client's and may be MaxString long: quote a prefix,
		// or the refusal itself would not fit an ERR frame.
		return refuse(wire.CodeProtocol, "unknown transaction type "+strconv.Quote(name[:min(len(name), 64)])), nil
	}
	q := s.srv.queue
	var deadline time.Time
	if budgetMs > 0 {
		deadline = timeNow().Add(time.Duration(budgetMs) * time.Millisecond)
		// Deadline-aware admission: a firm-deadline transaction the queue
		// wait already makes late is worthless — refuse it now instead of
		// queueing work guaranteed to miss.
		if est := q.estimateWait(); est > 0 && timeNow().Add(est).After(deadline) {
			s.srv.ctr.RejectedInfeasible.Add(1)
			s.srv.noteOverload()
			return refuse(wire.CodeInfeasible,
				"queue wait estimate "+est.Round(time.Millisecond).String()+" exceeds deadline budget"), nil
		}
	}
	if q.tryBypass(s.srv.admitSem) {
		return s.beginInline(name, deadline)
	}
	ar := &admitReq{name: name, pri: tmpl.Priority, reply: make(chan admitResult, 1)}
	s.srv.pending.Add(1)
	victim, err := q.enqueue(ar)
	if victim != nil {
		s.srv.shed(victim)
	}
	if err != nil {
		s.srv.pending.Add(-1)
		s.srv.noteOverload()
		if errors.Is(err, errShed) {
			s.srv.ctr.Shed.Add(1)
			return refuse(wire.CodeShed, "BEGIN: "+err.Error()), nil
		}
		s.srv.ctr.RejectedOverload.Add(1)
		return refuse(wire.CodeOverload, "admission queue full"), nil
	}
	select {
	case res := <-ar.reply:
		defer s.srv.pending.Add(-1)
		return s.admitted(res, deadline), nil
	case <-s.ctx.Done():
		if !ar.claim.CompareAndSwap(claimFree, claimAbandoned) {
			// Dispatcher won the race: the result is in flight on the
			// buffered channel. Take ownership and discard it.
			if res := <-ar.reply; res.tx != nil {
				res.tx.Abort()
			}
		}
		s.srv.pending.Add(-1)
		return nil, s.ctx.Err()
	}
}

// beginInline admits on the exec goroutine itself, under the
// admission slot tryBypass claimed. With the queue empty there is no
// priority order to keep, nothing to shed or displace and nothing to
// batch, so the queue → dispatcher → BeginBatch → reply-channel relay would
// deliver exactly this outcome two goroutine handoffs later: the slot
// keeps MaxAdmitting exact, pending covers the call so Drain sees the
// work, and a busy template slot parks in the manager under the session
// context — a disconnect unwinds it with ErrCancelled like any other
// parked manager call.
func (s *session) beginInline(name string, deadline time.Time) (*wire.ErrMsg, error) {
	s.srv.pending.Add(1)
	defer s.srv.pending.Add(-1)
	tx, err := s.srv.mgr.Begin(s.ctx, name)
	<-s.srv.admitSem
	if err != nil && s.ctx.Err() != nil {
		return nil, s.ctx.Err()
	}
	return s.admitted(admitResult{tx: tx, err: err}, deadline), nil
}

// admitted turns an admission verdict into the refusal to send or, on
// success, installs the transaction as the session's live one.
func (s *session) admitted(res admitResult, deadline time.Time) *wire.ErrMsg {
	if res.err != nil {
		return refuse(codeOf(res.err), "BEGIN: "+res.err.Error())
	}
	s.armTx(res.tx, uint64(res.tx.ID()), deadline)
	s.srv.ctr.Accepted.Add(1)
	return nil
}

// shed fails a displaced request with errShed through the claim protocol.
// The victim's own session decrements pending when it consumes the reply,
// exactly as for a dispatcher-delivered result; if the session already
// abandoned the wait there is nothing to deliver (no transaction exists).
func (s *Server) shed(victim *admitReq) {
	s.ctr.Shed.Add(1)
	s.noteOverload()
	if victim.claim.CompareAndSwap(claimFree, claimDelivered) {
		victim.reply <- admitResult{err: errShed}
	}
}

// dispatch is the admission pump: it drains the priority queue into groups
// of distinct template names and admits each group through one
// rtm.BeginBatch call. The semaphore bounds concurrently running groups (and
// inline admissions); when all slots are busy the pump stalls, the queue
// fills past its high-water mark, and the shedding policy starts refusing
// the lowest-priority work — the backpressure chain the bounded queue
// promises, in priority order.
func (s *Server) dispatch() {
	defer s.dispatchWG.Done()
	defer func() { abandonGroup(s.queue.drainAll()) }()
	for {
		select {
		case <-s.ctx.Done():
			return
		case <-s.queue.wake:
		}
		for batch := s.queue.pop(s.cfg.BatchMax); len(batch) > 0; batch = s.queue.pop(s.cfg.BatchMax) {
			for _, group := range splitDistinct(batch) {
				select {
				case s.admitSem <- struct{}{}:
				case <-s.ctx.Done():
					abandonGroup(group)
					return
				}
				s.dispatchWG.Add(1)
				go s.admitGroup(group)
			}
		}
	}
}

// splitDistinct partitions a gathered batch into groups with pairwise
// distinct names, preserving pop order: the i-th request for a given
// template lands in group i. BeginBatch forbids duplicate names in one
// call (two instances of a template cannot be live together), so repeats
// must go through separate batches anyway — this keeps them ordered per
// template without re-enqueueing.
func splitDistinct(batch []*admitReq) [][]*admitReq {
	var groups [][]*admitReq
	next := make(map[string]int, len(batch))
	for _, r := range batch {
		g := next[r.name]
		next[r.name] = g + 1
		if g == len(groups) {
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], r)
	}
	return groups
}

// admitGroup admits one distinct-name group under a single manager-lock
// acquisition and delivers each handle to its session — or aborts it if
// the session abandoned the wait.
func (s *Server) admitGroup(group []*admitReq) {
	defer s.dispatchWG.Done()
	defer func() { <-s.admitSem }()
	names := make([]string, len(group))
	for i, r := range group {
		names[i] = r.name
	}
	txs, err := s.mgr.BeginBatch(s.ctx, names)
	for i, r := range group {
		res := admitResult{err: err}
		if err == nil {
			res.tx = txs[i]
		}
		if r.claim.CompareAndSwap(claimFree, claimDelivered) {
			r.reply <- res
		} else if res.tx != nil {
			// Session abandoned between enqueue and delivery; the batch is
			// all-or-nothing, so the orphan was admitted and must go.
			res.tx.Abort()
		}
	}
}

// abandonGroup fails requests that were queued or gathered but never
// admitted (server shutdown). No transactions exist; sessions unblock via
// their contexts.
func abandonGroup(group []*admitReq) {
	for _, r := range group {
		if r.claim.CompareAndSwap(claimFree, claimDelivered) {
			r.reply <- admitResult{err: rtm.ErrCancelled}
		}
	}
}
