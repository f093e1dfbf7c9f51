package rtm

import (
	"context"

	"pcpda/internal/rt"
)

// waitKind distinguishes what a parked waiter is waiting for, because the
// wake rules differ: lock waiters must additionally be woken when their own
// running priority rises (LC2 admits on the running priority), while commit
// and template waiters only depend on other transactions finishing.
type waitKind uint8

const (
	waitLock   waitKind = iota // lock request denied by the locking conditions
	waitCommit                 // Commit waiting out stale readers
	waitTmpl                   // Begin waiting for the template slot
)

// waitNode is one parked waiter. Wakeups are targeted: a node is registered
// (under m.mu) against every job it waits on before the manager lock is
// released, and woken through its own buffered channel. Because registration
// happens before unlock and wake() is a non-blocking send into a buffer of
// one, a wake delivered at any point after registration is never lost — the
// subsequent receive completes immediately.
type waitNode struct {
	kind waitKind
	slot *slot // the slot a Begin waiter queues for; waitTmpl only
	ch   chan struct{}

	// Registration bookkeeping, all under m.mu.
	blockers []rt.JobID // jobs whose slots' waiter lists this node is filed in
	filed    bool       // registered and not yet deregistered
}

// wake delivers one wake token; extra tokens while one is already pending
// coalesce. Caller holds m.mu.
func (n *waitNode) wake() {
	select {
	case n.ch <- struct{}{}:
	default:
	}
}

// drain discards a stale token left over from a wake that raced a
// cancellation on the previous park.
func (n *waitNode) drain() {
	select {
	case <-n.ch:
	default:
	}
}

// parked reports whether the node is currently registered.
func (n *waitNode) parked() bool { return n.filed }

// --- registration (all under m.mu) -------------------------------------------

// register files n in the waiter list of every blocker's slot (a Begin
// waiter: in its slot's begins). The blockers come from a decision taken
// under this same hold of m.mu, so each is live.
func (m *Manager) register(n *waitNode, blockers []rt.JobID) {
	n.blockers = blockers
	for _, id := range blockers {
		if b := m.live(id); b != nil {
			b.waiters = append(b.waiters, n)
		}
	}
	if n.kind == waitTmpl {
		n.slot.begins = append(n.slot.begins, n)
	}
	n.filed = true
}

// deregister removes n from every list it was filed in. Idempotent. A
// blocker that finished meanwhile is not found by id — it emptied its list
// when it finished, and whatever holds its slot now never had n.
func (m *Manager) deregister(n *waitNode) {
	if !n.filed {
		return
	}
	n.filed = false
	for _, id := range n.blockers {
		if b := m.live(id); b != nil {
			b.waiters = removeNode(b.waiters, n)
		}
	}
	n.blockers = nil
	if n.kind == waitTmpl {
		n.slot.begins = removeNode(n.slot.begins, n)
	}
}

func removeNode(s []*waitNode, n *waitNode) []*waitNode {
	for i, x := range s {
		if x == n {
			s[i] = s[len(s)-1]
			s[len(s)-1] = nil
			return s[:len(s)-1]
		}
	}
	return s
}

// --- wake rules ---------------------------------------------------------------

// wakeAll wakes every parked waiter — the targeted-wakeup equivalent of the
// legacy condition broadcast, kept for injected spurious wakeups (package
// fault's Wakeup action must still exercise every waiter's re-evaluation
// path).
func (m *Manager) wakeAll() {
	m.eachParked(func(n *waitNode) { n.wake() })
}

// eachParked calls f on every parked waiter. The slot table is the one
// record of them: a lock or commit waiter parks on its slot's own node, and
// a Begin waiter is filed in the begins of the slot it queues for.
func (m *Manager) eachParked(f func(n *waitNode)) {
	for i := range m.slots {
		s := &m.slots[i]
		if s.wn.filed {
			f(&s.wn)
		}
		for _, n := range s.begins {
			f(n)
		}
	}
}

// --- parking ------------------------------------------------------------------

// sleep is the package's one blocking receive and its one deregistration
// after a wait: with n registered and m.mu held, it releases the mutex,
// waits for a wake token or for ctx to end, retakes the mutex and unfiles n.
// It returns ctx's error, which a token that raced the cancellation does not
// clear. Every way out of a wait passes through here, so no exit of park or
// parkBegin can leave the node filed (DESIGN.md §10 has the mutation table).
func (m *Manager) sleep(ctx context.Context, n *waitNode) error {
	m.mu.Unlock()
	select {
	case <-n.ch:
	case <-ctx.Done():
	}
	m.mu.Lock()
	m.deregister(n)
	return ctx.Err()
}

// park blocks t until a targeted wakeup or ctx cancellation, handling
// priority inheritance, cycle detection and victim teardown.
// Caller holds m.mu with the job Blocked by cc.Wait (or cc.Apply), which
// reported whether the Blocked set changed; only then do inheritance and the
// cycle search run, as in the kernel. On nil return the job is still Blocked
// and the caller re-evaluates its condition.
//
// The ordering is load-bearing: the node registers, and inheritance runs when
// it is due, before m.mu is released, so a blocker finishing (or a priority
// raise flipping LC2) at any later point finds the node and its token is
// retained.
func (m *Manager) park(ctx context.Context, t *Txn, kind waitKind, changed bool) error {
	s := t.slot
	n := &s.wn
	n.kind = kind
	n.drain()
	m.register(n, s.job.Blockers)
	if changed {
		m.inherit()
		if victim := m.resolveCycle(t); victim != nil {
			victim.aborted = true
			m.stats.CycleAborts++
			if victim == t {
				m.deregister(n)
				m.kill(t)
				return ErrAborted
			}
			victim.slot.wn.wake()
		}
	}
	ctxErr := m.sleep(ctx, n)
	if t.done {
		// Aborted from another goroutine while parked: finish already unfiled
		// the node and kept the slot for us to hand back.
		m.vacate(s)
		if ctxErr != nil {
			return &cancelledError{cause: ctxErr}
		}
		return ErrClosed
	}
	if t.aborted {
		m.kill(t)
		return ErrAborted
	}
	if ctxErr != nil {
		return m.cancel(t, ctxErr)
	}
	return nil
}

// parkBegin blocks a Begin call until slot s may be free. The transient node
// comes from a pool (Begin waiters have no Txn yet).
func (m *Manager) parkBegin(ctx context.Context, s *slot) error {
	n := m.getNode()
	n.kind = waitTmpl
	n.slot = s
	m.register(n, nil)
	err := m.sleep(ctx, n)
	m.putNode(n)
	if err != nil {
		return &cancelledError{cause: err}
	}
	return nil
}

func (m *Manager) getNode() *waitNode {
	if k := len(m.freeNodes); k > 0 {
		n := m.freeNodes[k-1]
		m.freeNodes = m.freeNodes[:k-1]
		return n
	}
	return &waitNode{ch: make(chan struct{}, 1)}
}

func (m *Manager) putNode(n *waitNode) {
	n.drain()
	n.slot = nil
	m.freeNodes = append(m.freeNodes, n)
}
