// Package rtm is the waitnode analyzer's test bed (matched by import
// path): a miniature of the live manager's park/wake machinery with both
// correctly paired and leaking registration paths.
package rtm

import (
	"context"
	"errors"
	"sync"
)

var errAborted = errors.New("aborted")

type JobID int64

type waitNode struct {
	ch       chan struct{}
	blockers []JobID
	allIdx   int
}

type slot struct {
	id      JobID
	waiters []*waitNode
	begins  []*waitNode
}

type Manager struct {
	mu         sync.Mutex
	slots      []slot
	allWaiters []*waitNode
}

func (m *Manager) live(id JobID) *slot {
	for i := range m.slots {
		if m.slots[i].id == id {
			return &m.slots[i]
		}
	}
	return nil
}

// --- primitives (exempt from the pairing check) ------------------------------

func (m *Manager) register(n *waitNode, blockers []JobID) {
	n.blockers = blockers
	for _, id := range blockers {
		if b := m.live(id); b != nil {
			b.waiters = append(b.waiters, n)
		}
	}
	n.allIdx = len(m.allWaiters)
	m.allWaiters = append(m.allWaiters, n)
}

func (m *Manager) deregister(n *waitNode) {
	if n.allIdx < 0 {
		return
	}
	n.allIdx = -1
}

// --- correctly paired paths --------------------------------------------------

// ok: every exit (abort, cancellation, normal) deregisters first.
func (m *Manager) park(ctx context.Context, n *waitNode, blockers []JobID, victim bool) error {
	m.register(n, blockers)
	if victim {
		m.deregister(n)
		return errAborted
	}
	m.mu.Unlock()
	select {
	case <-n.ch:
	case <-ctx.Done():
	}
	m.mu.Lock()
	m.deregister(n)
	if err := ctx.Err(); err != nil {
		return err
	}
	return nil
}

// ok: raw index appends count as registration; paired here.
func (m *Manager) parkBegin(ctx context.Context, s *slot, n *waitNode) error {
	s.begins = append(s.begins, n)
	n.allIdx = len(m.allWaiters)
	m.allWaiters = append(m.allWaiters, n)
	<-n.ch
	m.deregister(n)
	return ctx.Err()
}

// ok: a deferred deregister guards every return.
func (m *Manager) parkDeferred(ctx context.Context, n *waitNode, blockers []JobID) error {
	m.register(n, blockers)
	defer m.deregister(n)
	select {
	case <-n.ch:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// --- leaking paths -----------------------------------------------------------

// bad: the cancellation exit returns without deregistering.
func (m *Manager) parkLeakyCancel(ctx context.Context, n *waitNode, blockers []JobID) error {
	m.register(n, blockers)
	select {
	case <-n.ch:
	case <-ctx.Done():
		return ctx.Err() // want `return with a wait node still registered`
	}
	m.deregister(n)
	return nil
}

// bad: the error branch leaks; the happy path is paired.
func (m *Manager) parkLeakyError(n *waitNode, blockers []JobID, fail bool) error {
	m.register(n, blockers)
	if fail {
		return errAborted // want `return with a wait node still registered`
	}
	m.deregister(n)
	return nil
}

// bad: a raw index append with no deregister anywhere, leaking at the
// implicit function end.
func (m *Manager) fileAndForget(s *slot, n *waitNode) { // ok (reported on the closing brace below)
	s.waiters = append(s.waiters, n)
} // want `function fileAndForget ends with a wait node still registered`

// ok: no registration at all.
func (m *Manager) wakeWaitersOn(s *slot) {
	for _, n := range s.waiters {
		select {
		case n.ch <- struct{}{}:
		default:
		}
	}
}
