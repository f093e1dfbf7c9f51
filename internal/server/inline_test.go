package server

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"pcpda/internal/rtm"
	"pcpda/internal/wire"
)

// A BEGIN that finds nothing waiting and a slot free is admitted at once —
// by the same acquire every queued BEGIN goes through, so there is no
// second path for it to differ from. A BEGIN and a TXN are admitted by the
// same code, and the end-to-end cases run with each.

func TestTryBypassNeedsEmptyQueueAndFreeSlot(t *testing.T) {
	q := newAdmitQueue(1, 4, 3, new(atomic.Int64))
	bg := context.Background()
	free := func() int { return freeSlots(q) }
	if v := arrive(t, bg, q, 1); len(v) != 1 || <-v != nil || free() != 0 {
		t.Fatalf("empty queue, free slot: not admitted at once (slots free %d)", free())
	}
	hi := arrive(t, bg, q, 9)
	if len(hi) != 0 || q.depthNow() != 1 {
		t.Fatal("admitted at once with every admission slot taken")
	}
	// A slot given up while work waits is never free for an arrival to
	// take: it goes to the waiter, and a later arrival queues behind.
	late := arrive(t, bg, q, 1)
	q.release()
	if err := verdictOf(t, "hi", hi); err != nil || len(late) != 0 || free() != 0 {
		t.Fatalf("admitted past queued work: hi got %v, late answered %v, slots free %d", err, len(late) != 0, free())
	}
	q.release()
	if err := verdictOf(t, "late", late); err != nil {
		t.Fatal(err)
	}
	q.release()
	if free() != 1 {
		t.Fatalf("slots free = %d after every holder released, want 1", free())
	}

	// Each admission at once is a zero-wait sample: the estimate decays.
	q.ewmaWaitNs.Store(int64(8 * time.Millisecond))
	if v := arrive(t, bg, q, 1); len(v) != 1 {
		t.Fatal("not admitted at once after the queue emptied")
	}
	if got := time.Duration(q.ewmaWaitNs.Load()); got != 7*time.Millisecond {
		t.Fatalf("wait estimate after an admission at once = %v, want 7ms", got)
	}
}

// eachAdmission runs test once with the transaction under test opened by a
// BEGIN and once with it sent whole as a TXN: the two share session.begin,
// and every admission case here must come out the same for both.
func eachAdmission(t *testing.T, test func(t *testing.T, whole bool)) {
	t.Run("begin", func(t *testing.T) { test(t, false) })
	t.Run("txn", func(t *testing.T) { test(t, true) })
}

// admit sends the request under test on a fresh raw connection — BEGIN, or
// an empty TXN of the template — and returns the connection and a channel
// that delivers the id the server reports once it has admitted (and, for a
// TXN, committed) it. The channel is closed without a value if the
// connection dies first.
func admit(t *testing.T, addr, name string, whole bool) (*rawPipe, <-chan uint64) {
	t.Helper()
	r := dialRaw(t, addr)
	if whole {
		r.send(1, &wire.Txn{Name: name})
	} else {
		r.send(1, &wire.Begin{Name: name})
	}
	id := make(chan uint64, 1)
	go func() {
		defer close(id)
		_ = r.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		m, _, _, _, err := wire.ReadAny(r.br, nil)
		if err != nil {
			return
		}
		switch m := m.(type) {
		case *wire.TxnOK:
			id <- m.ID
		case *wire.BeginOK:
			id <- m.ID
		default:
			t.Errorf("admission of %s answered with %s (%+v)", name, m.Kind(), m)
		}
	}()
	return r, id
}

// With the admission slot taken, later arrivals queue — also ones whose
// template slot is free — and leave the queue in priority order: a
// low-priority arrival behind a queued high-priority one is admitted after
// it, and nothing is admitted while the slot is held.
func TestInlineBeginYieldsToQueuedWork(t *testing.T) {
	eachAdmission(t, func(t *testing.T, whole bool) {
		mgr, _ := rtm.New(testSet(t))
		addr, srv := startServer(t, mgr, Config{MaxAdmitting: 1})
		holder, parked := jamAdmission(t, addr, srv, mgr)
		defer func() { _ = holder.Close(); _ = parked.Close() }()

		queue := func(name string, depth int) <-chan uint64 {
			t.Helper()
			_, id := admit(t, addr, name, whole)
			waitFor(t, name+" queued", func() bool { return srv.queue.depthNow() == depth })
			return id
		}
		high := queue("reader", 1) // priority 3, template slot free
		low := queue("updater", 2) // priority 2, template slot free, arrives later

		// The bound holds: one admission in flight (parked on zonly's slot),
		// nothing else admitted although reader and updater could start.
		if got := slotsHeld(srv); got != 1 {
			t.Fatalf("admission slots taken = %d, want 1", got)
		}
		if st := mgr.Stats(); st.Live != 1 || mgr.ParkedWaiters() != 1 {
			t.Fatalf("live = %d, parked = %d; want the holder live and one parked admission", st.Live, mgr.ParkedWaiters())
		}
		if got := srv.Counters().Accepted.Load(); got != 1 {
			t.Fatalf("accepted = %d while the admission slot is held, want 1", got)
		}

		// Unwind: the parked zonly inherits the template slot and gives its
		// admission slot up.
		if err := holder.Abort(); err != nil {
			t.Fatal(err)
		}
		h, hok := <-high
		l, lok := <-low
		if !hok || !lok {
			t.Fatalf("queued admissions answered: reader %v, updater %v", hok, lok)
		}
		if h >= l {
			t.Fatalf("reader admitted as job %d, updater as job %d: queued priority order lost", h, l)
		}
		waitFor(t, "admission pipeline to empty", func() bool { return srv.pending.Load() == 0 })
	})
}

// An arrival admitted at once onto a busy template slot parks in the manager
// under the session context. A disconnect unwinds it there: no orphan is
// ever admitted, the admission slot comes back, and nothing stays parked.
func TestDisconnectWhileParkedInline(t *testing.T) {
	eachAdmission(t, func(t *testing.T, whole bool) {
		mgr, _ := rtm.New(testSet(t))
		addr, srv := startServer(t, mgr, Config{})
		holder := mustDial(t, addr)
		defer func() { _ = holder.Close() }()
		if _, err := holder.Begin("zonly"); err != nil {
			t.Fatal(err)
		}
		waiter, answered := admit(t, addr, "zonly", whole)
		waitFor(t, "the admission to park", func() bool { return mgr.ParkedWaiters() == 1 })
		if d, p, a := srv.queue.depthNow(), srv.pending.Load(), slotsHeld(srv); d != 0 || p != 1 || a != 1 {
			t.Fatalf("queue depth %d, pending %d, admission slots %d; want an admission at once (0, 1, 1)", d, p, a)
		}

		_ = waiter.conn.Close()
		if _, ok := <-answered; ok {
			t.Fatal("the abandoned admission was answered")
		}
		waitFor(t, "the admission to unwind", func() bool {
			return srv.pending.Load() == 0 && mgr.ParkedWaiters() == 0 && slotsHeld(srv) == 0
		})
		if st := mgr.Stats(); st.Begins != 1 || st.Live != 1 {
			t.Fatalf("begins = %d, live = %d; the abandoned arrival must never have been admitted", st.Begins, st.Live)
		}
		if err := holder.Abort(); err != nil {
			t.Fatal(err)
		}
		if err := mgr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

// The watchdog force-aborts a stuck holder while another session's arrival
// is parked on its template slot: the parked one inherits the slot
// and completes, the holder's session learns of the trip, and the admission
// accounting ends at zero.
func TestWatchdogTripFreesParkedInline(t *testing.T) {
	eachAdmission(t, func(t *testing.T, whole bool) {
		mgr, _ := rtm.New(testSet(t))
		addr, srv := startServer(t, mgr, Config{
			WatchdogInterval: 5 * time.Millisecond, WatchdogGrace: 10 * time.Millisecond,
		})
		holder := mustDial(t, addr)
		defer func() { _ = holder.Close() }()
		if _, err := holder.BeginBudget("zonly", 50*time.Millisecond); err != nil {
			t.Fatal(err)
		}
		// Parks in the manager until the watchdog trips the holder.
		waiter, admitted := admit(t, addr, "zonly", whole)
		if _, ok := <-admitted; !ok {
			t.Fatal("the arrival parked behind a stuck holder was never admitted")
		}
		waitFor(t, "the trip to be counted", func() bool { return srv.Counters().WatchdogTrips.Load() == 1 })
		if err := holder.Commit(); !wire.IsCode(err, wire.CodeDeadline) {
			t.Fatalf("holder after the trip: %v, want CodeDeadline", err)
		}
		if !whole { // a TXN has committed already
			waiter.send(2, &wire.Commit{})
			waiter.expect(2, wire.KindCommitOK)
		}
		if p, w, a := srv.pending.Load(), mgr.ParkedWaiters(), slotsHeld(srv); p != 0 || w != 0 || a != 0 {
			t.Fatalf("pending %d, parked waiters %d, admission slots %d; want all zero", p, w, a)
		}
		if st := mgr.Stats(); st.Commits != 1 || st.Live != 0 {
			t.Fatalf("commits = %d, live = %d; want the waiter's commit and nothing live", st.Commits, st.Live)
		}
		if n := srv.Counters().WatchdogAuditFails.Load(); n != 0 {
			t.Fatalf("watchdog audit failures: %d", n)
		}
	})
}
