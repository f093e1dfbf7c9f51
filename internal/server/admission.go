package server

import (
	"context"
	"errors"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pcpda/internal/rt"
	"pcpda/internal/wire"
)

// waiter is one BEGIN (or TXN's admission) waiting at the gate for a slot.
// Every change of its state — slot handed, displaced, withdrawn — happens
// under the gate's mutex, and the two the waiter does not make itself arrive
// as the one value ever sent on verdict.
type waiter struct {
	pri      rt.Priority // template base priority; higher = more urgent
	seq      uint64      // arrival order, FIFO tiebreak within a priority
	enqueued time.Time   // when the waiter arrived (wait estimator)
	verdict  chan error  // buffered(1); written at most once: nil = a slot is yours, errShed = displaced
}

// errShed answers a BEGIN displaced from the gate (or refused at arrival) by
// the priority-shedding policy; sessions map it to wire.CodeShed.
var errShed = errors.New("server: shed as lowest-priority work past the admission high-water mark")

// errQueueFull is returned by acquire when the gate's queue is full and the
// arrival does not outrank any waiter; sessions map it to wire.CodeOverload.
var errQueueFull = errors.New("server: admission queue full")

// admitQueue is the server's one admission gate: MaxAdmitting slots, and a
// bounded queue of the arrivals waiting for one, sorted by (priority desc,
// arrival seq asc). A session passes through it itself — acquire, the
// manager's Begin, release — so there is no second goroutine to hand a
// request to and no state in which a request is neither waiting nor holding
// a slot. Slots and waiters live under the one mutex, which keeps
//
//	free > 0  ⇒  nothing waits
//
// at every instant: an arrival takes a free slot only when the queue is
// empty, and a released slot goes straight to the most urgent waiter. So the
// next admission is always the most urgent work waiting and the shedding
// policy always knows which is the least urgent, whatever session either
// came from — PCP-DA's one priority order extended to the network edge,
// where the protocol itself cannot see yet — and depth, Health and the wait
// estimate are exact over everything that waits.
//
// Shedding policy:
//
//   - Queue full: an arrival that outranks the lowest-priority waiter
//     displaces it (the victim's acquire returns errShed); an arrival that
//     does not is refused with errQueueFull.
//   - Queue at or past the high-water mark: an arrival strictly below every
//     waiter is refused with errShed immediately — it would be the first
//     displaced anyway, and refusing it early keeps the remaining headroom
//     for work that ranks.
//
// Same-priority waiters keep FIFO order.
type admitQueue struct {
	mu    sync.Mutex
	items []*waiter //pcpda:guardedby mu — sorted: priority desc, seq asc
	seq   uint64    //pcpda:guardedby mu
	free  int       //pcpda:guardedby mu — slots nobody holds; positive only while items is empty

	depth     int           //pcpda:guardedby immutable
	highWater int           //pcpda:guardedby immutable
	shed      *atomic.Int64 //pcpda:guardedby immutable — ServerCounters.Shed: moved once per errShed, where it is decided

	// ewmaWaitNs estimates how long recent arrivals waited for their slot
	// (exponential moving average, α = 1/8). estimateWait scales it by the
	// current occupancy so the estimate self-corrects downward as soon as
	// the queue drains — a stale-high estimate can never wedge admission
	// shut, because an empty queue always estimates near zero, gets work
	// admitted, and refreshes the average.
	ewmaWaitNs atomic.Int64
}

func newAdmitQueue(slots, depth, highWater int, shed *atomic.Int64) *admitQueue {
	return &admitQueue{free: slots, depth: depth, highWater: highWater, shed: shed}
}

// acquire takes one admission slot for an arrival of priority pri: at once
// when nothing waits and a slot is free, otherwise by queueing under the
// shedding policy and waiting for a release to hand it one. It returns nil
// with the slot held (the caller owes one release), errShed or errQueueFull
// when the policy turns the arrival away or displaces it later, or ctx's
// error when ctx ends first — holding nothing in all three.
func (q *admitQueue) acquire(ctx context.Context, pri rt.Priority) error {
	q.mu.Lock()
	n := len(q.items)
	if n == 0 && q.free > 0 {
		q.free--
		q.noteWait(0)
		q.mu.Unlock()
		return nil
	}
	if n >= q.depth {
		low := q.items[n-1] // lowest priority, latest arrival
		if pri <= low.pri {
			q.mu.Unlock()
			return errQueueFull
		}
		q.items = q.items[:n-1]
		q.shed.Add(1)
		low.verdict <- errShed
	} else if n >= q.highWater && n > 0 && pri < q.items[n-1].pri {
		q.shed.Add(1)
		q.mu.Unlock()
		return errShed
	}
	w := &waiter{pri: pri, seq: q.seq, enqueued: time.Now(), verdict: make(chan error, 1)}
	q.seq++
	// Insertion point: after every waiter with priority >= pri.
	i := len(q.items)
	for i > 0 && q.items[i-1].pri < pri {
		i--
	}
	q.items = append(q.items, nil)
	copy(q.items[i+1:], q.items[i:])
	q.items[i] = w
	q.mu.Unlock()

	select {
	case err := <-w.verdict:
		return err
	case <-ctx.Done():
	}
	q.mu.Lock()
	for i, x := range q.items {
		if x == w {
			q.items = append(q.items[:i], q.items[i+1:]...)
			q.mu.Unlock()
			return ctx.Err()
		}
	}
	q.mu.Unlock()
	// Gone from the queue, so the verdict is in the channel. A slot handed to
	// a dead session goes to the next waiter; no transaction was ever begun.
	if <-w.verdict == nil {
		q.release()
	}
	return ctx.Err()
}

// release gives a held slot up: to the most urgent waiter if there is one,
// telling the wait estimator how long it waited, else back to the free count.
func (q *admitQueue) release() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.items) == 0 {
		q.free++
		return
	}
	w := q.items[0]
	rest := copy(q.items, q.items[1:])
	q.items[rest] = nil
	q.items = q.items[:rest]
	q.noteWait(time.Since(w.enqueued).Nanoseconds())
	w.verdict <- nil
}

// noteWait feeds one arrival's wait for its slot to the wait estimator.
// Caller holds q.mu.
func (q *admitQueue) noteWait(ns int64) {
	old := q.ewmaWaitNs.Load()
	q.ewmaWaitNs.Store(old - old/8 + ns/8)
}

// depthNow returns the number of arrivals waiting.
func (q *admitQueue) depthNow() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

// estimateWait predicts the wait a new arrival would see: the recent EWMA
// scaled by current occupancy. Deliberately cheap and conservative-low when
// nothing waits; admission control only needs it to be honest under
// sustained pressure, where occupancy is high and the EWMA is fresh.
func (q *admitQueue) estimateWait() time.Duration {
	occ := q.depthNow()
	if occ == 0 {
		return 0
	}
	est := q.ewmaWaitNs.Load() * int64(occ+1) / int64(q.highWater+1)
	return time.Duration(est)
}

// busy refuses a BEGIN or a TXN while a transaction is live on the session
// or the server is draining; nil lets it through.
func (s *session) busy() *wire.ErrMsg {
	if s.lt != nil {
		return refuse(wire.CodeState, "BEGIN or TXN with a transaction already live")
	}
	if s.srv.draining.Load() {
		return refuse(wire.CodeDraining, "server draining")
	}
	return nil
}

// begin is the admission a BEGIN and a TXN share, run in the session's
// exec goroutine: validate state, apply deadline-aware admission control,
// pass the gate, begin. The slot is held across the manager's Begin and no
// longer: a busy template slot parks the call in the manager under the
// session context with the admission slot still taken — MaxAdmitting bounds
// the arrivals inside the manager that no priority order governs yet — and a
// disconnect unwinds it with ErrCancelled like any other parked manager
// call. pending covers the whole passage so Drain sees the work. It returns
// with the transaction armed as s.lt (both results nil), with the ERR that
// refuses the request for the caller to send, or with the error that ends
// the session.
func (s *session) begin(name string, budgetMs uint32) (*wire.ErrMsg, error) {
	if refusal := s.busy(); refusal != nil {
		return refusal, nil
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
		// Deadline-aware admission: a firm-deadline transaction the wait for
		// a slot already makes late is worthless — refuse it now instead of
		// queueing work guaranteed to miss.
		if est := q.estimateWait(); est > 0 && timeNow().Add(est).After(deadline) {
			s.srv.ctr.RejectedInfeasible.Add(1)
			s.srv.noteOverload()
			return refuse(wire.CodeInfeasible,
				"queue wait estimate "+est.Round(time.Millisecond).String()+" exceeds deadline budget"), nil
		}
	}
	s.srv.pending.Add(1)
	defer s.srv.pending.Add(-1)
	switch err := q.acquire(s.ctx, tmpl.Priority); err {
	case nil:
	case errShed:
		s.srv.noteOverload()
		return refuse(wire.CodeShed, "BEGIN: "+err.Error()), nil
	case errQueueFull:
		s.srv.ctr.RejectedOverload.Add(1)
		s.srv.noteOverload()
		return refuse(wire.CodeOverload, "admission queue full"), nil
	default:
		return nil, err
	}
	tx, err := s.srv.mgr.Begin(s.ctx, name)
	q.release()
	if err != nil {
		if s.ctx.Err() != nil {
			return nil, s.ctx.Err()
		}
		return refuse(codeOf(err), "BEGIN: "+err.Error()), nil
	}
	s.armTx(tx, deadline)
	s.srv.ctr.Accepted.Add(1)
	return nil, nil
}
