package server

import (
	"context"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"

	"pcpda/internal/rt"
)

// arrival is one acquire call in flight in TestGateAgainstModel: what the
// model knows of it, and the channel its one verdict arrives on.
type arrival struct {
	pri     rt.Priority
	seq     uint64 // the model's arrival order among those that queued
	cancel  context.CancelFunc
	verdict <-chan error
}

// modelGate is the reference the gate is held to: a count of free slots and
// the waiters in the order slots must reach them.
type modelGate struct {
	free, depth, highWater int
	seq, shed              uint64
	waiting                []*arrival // priority desc, seq asc
}

// arrive files a under the shedding policy and reports what must happen: a
// takes a slot at once, or is refused with err, or waits — shedding victim.
func (m *modelGate) arrive(a *arrival) (atOnce bool, victim *arrival, err error) {
	n := len(m.waiting)
	switch {
	case n == 0 && m.free > 0:
		m.free--
		return true, nil, nil
	case n >= m.depth && a.pri <= m.waiting[n-1].pri:
		return false, nil, errQueueFull
	case n >= m.depth:
		victim, m.waiting = m.waiting[n-1], m.waiting[:n-1]
		m.shed++
	case n >= m.highWater && a.pri < m.waiting[n-1].pri:
		m.shed++
		return false, nil, errShed
	}
	a.seq, m.seq = m.seq, m.seq+1
	m.waiting = append(m.waiting, a)
	sort.SliceStable(m.waiting, func(i, j int) bool { return m.waiting[i].pri > m.waiting[j].pri })
	return false, victim, nil
}

// release gives a slot up and returns the waiter it must go to, if any.
func (m *modelGate) release() *arrival {
	if len(m.waiting) == 0 {
		m.free++
		return nil
	}
	next := m.waiting[0]
	m.waiting = m.waiting[1:]
	return next
}

func (m *modelGate) remove(a *arrival) {
	for i, w := range m.waiting {
		if w == a {
			m.waiting = append(m.waiting[:i:i], m.waiting[i+1:]...)
			return
		}
	}
}

// TestGateAgainstModel drives the gate with a seeded random sequence of
// arrivals, releases and cancelled waiters — and releases racing the
// cancellation of the very waiter they would serve — checking after every
// step that it did what the model says and that its invariants hold: a free
// slot means nothing waits, slots held and free add up to MaxAdmitting,
// slots reach waiters in (priority desc, arrival asc) order, every arrival
// gets exactly one verdict, a cancelled waiter leaves holding nothing, and
// each shed arrival moves the shed counter once.
func TestGateAgainstModel(t *testing.T) {
	const slots, depth, highWater, steps = 3, 6, 4, 1000
	shed := new(atomic.Int64)
	q := newAdmitQueue(slots, depth, highWater, shed)
	m := &modelGate{free: slots, depth: depth, highWater: highWater}
	rng := rand.New(rand.NewSource(27))
	held := 0 // slots the test holds: nil verdicts not yet released

	mustGet := func(step int, a *arrival, who string, want error) {
		t.Helper()
		if got := verdictOf(t, who, a.verdict); got != want {
			t.Fatalf("step %d: %s (pri %d) got verdict %v, want %v", step, who, a.pri, got, want)
		}
	}
	check := func(step int, what string) {
		t.Helper()
		q.mu.Lock()
		defer q.mu.Unlock()
		if q.free > 0 && len(q.items) > 0 {
			t.Fatalf("step %d (%s): %d slots free while %d wait", step, what, q.free, len(q.items))
		}
		if q.free != m.free || held+q.free != slots {
			t.Fatalf("step %d (%s): free = %d, model %d; held %d + free must be %d", step, what, q.free, m.free, held, slots)
		}
		if len(q.items) != len(m.waiting) {
			t.Fatalf("step %d (%s): %d waiting, model %d", step, what, len(q.items), len(m.waiting))
		}
		for i, w := range q.items {
			if a := m.waiting[i]; w.pri != a.pri || w.seq != a.seq {
				t.Fatalf("step %d (%s): waiter %d is (pri %d, seq %d), model (pri %d, seq %d)", step, what, i, w.pri, w.seq, a.pri, a.seq)
			}
		}
		for _, a := range m.waiting {
			if len(a.verdict) != 0 {
				t.Fatalf("step %d (%s): a waiter the model still queues (pri %d, seq %d) was answered", step, what, a.pri, a.seq)
			}
		}
		if got := shed.Load(); got != int64(m.shed) {
			t.Fatalf("step %d (%s): shed counter = %d, model %d", step, what, got, m.shed)
		}
	}

	for step := 0; step < steps; step++ {
		switch op := rng.Intn(10); {
		case op < 5:
			ctx, cancel := context.WithCancel(context.Background())
			a := &arrival{pri: rt.Priority(rng.Intn(5)), cancel: cancel}
			a.verdict = arrive(t, ctx, q, a.pri)
			atOnce, victim, err := m.arrive(a)
			switch {
			case atOnce:
				mustGet(step, a, "arrival at a free gate", nil)
				held++
			case err != nil:
				mustGet(step, a, "refused arrival", err)
			case victim != nil:
				mustGet(step, victim, "displaced waiter", errShed)
			}
			check(step, "arrive")
		case op < 8 && held > 0:
			held--
			q.release()
			if next := m.release(); next != nil {
				mustGet(step, next, "most urgent waiter", nil)
				held++
			}
			check(step, "release")
		case op < 9 && len(m.waiting) > 0:
			a := m.waiting[rng.Intn(len(m.waiting))]
			m.remove(a)
			a.cancel()
			mustGet(step, a, "cancelled waiter", context.Canceled)
			check(step, "cancel")
		case held > 0 && len(m.waiting) > 0:
			// A release racing the death of the waiter it serves: the
			// waiter takes the slot, or leaves and the slot goes on to the
			// next — never both, never neither.
			a := m.waiting[0]
			held--
			if rng.Intn(2) == 0 {
				a.cancel() // the waiter wakes to find, often, both its context dead and a slot in hand
			} else {
				go a.cancel()
			}
			q.release()
			switch err := verdictOf(t, "waiter cancelled under a release", a.verdict); err {
			case nil:
				m.release()
				held++
			case context.Canceled:
				m.remove(a)
				if next := m.release(); next != nil {
					mustGet(step, next, "next waiter after a dead one", nil)
					held++
				}
			default:
				t.Fatalf("step %d: waiter cancelled under a release got %v", step, err)
			}
			check(step, "release racing cancel")
		}
	}
	for _, a := range m.waiting {
		a.cancel()
		mustGet(steps, a, "waiter at the end", context.Canceled)
	}
}
