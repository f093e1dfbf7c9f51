// Incremental ceiling and priority bookkeeping for the live manager.
//
// The admission decisions themselves stay in internal/pcpda; this file only
// maintains, in O(1) amortized per lock event, the two quantities those
// decisions keep asking for:
//
//   - the read-lock ceiling profile (how many read locks are live at each
//     write-ceiling rank), which answers Sysceil_i and enumerates T* through
//     the cc.CeilingIndex capability instead of a per-request scan over the
//     whole lock table; and
//
//   - running priorities under priority inheritance, maintained as explicit
//     donations (a parked waiter donates its running priority to each of its
//     blockers) instead of a global fixpoint recomputation on every blocking
//     or finishing event.
//
// Both structures exploit the paper's standing assumption that transaction
// priorities form a small total order: ranks are dense (rt.PriorityDomain),
// so "a count per priority level" is a flat array.
//
// Donation state is kept consistent with the classical inheritance fixpoint
// at every release of m.mu: parking (Status=Blocked, Blockers set, donations
// added) and waking (donations retracted, Blockers cleared) are each atomic
// under the lock, so CheckInvariants can always recompute the fixpoint from
// scratch and demand equality.
package rtm

import (
	"pcpda/internal/cc"
	"pcpda/internal/rt"
)

// --- incremental read-lock ceiling index -------------------------------------

// initCeilIndex precomputes the dense priority domain, the per-item ceiling
// rank and the global count array. Called once from NewWithOptions.
func (m *Manager) initCeilIndex() {
	pris := make([]rt.Priority, 0, len(m.set.Templates))
	maxItem := rt.Item(-1)
	for _, tmpl := range m.set.Templates {
		pris = append(pris, tmpl.Priority)
		for _, x := range tmpl.AccessSet().Items() {
			if x > maxItem {
				maxItem = x
			}
		}
	}
	m.dom = rt.NewPriorityDomain(pris)
	m.wceilRank = make([]int16, maxItem+1)
	for x := range m.wceilRank {
		r, ok := m.dom.Rank(m.ceil.Wceil(rt.Item(x)))
		if !ok {
			r = -1 // nobody writes x: its ceiling is the dummy level
		}
		m.wceilRank[x] = int16(r)
	}
	m.readCeil = make([]int32, m.dom.Size())
	m.ceilTop = -1
}

// ceilAdd records a newly acquired read lock by s's instance on x. Caller
// holds m.mu and must only call this when the lock table reported a fresh
// acquisition (Acquire returned true), so re-reads never double-count.
func (m *Manager) ceilAdd(s *slot, x rt.Item) {
	r := int(m.wceilRank[x])
	if r < 0 {
		return
	}
	m.readCeil[r]++
	s.ceilCounts[r]++
	if r > m.ceilTop {
		m.ceilTop = r
	}
}

// ceilRelease drops every ceiling contribution of s's instance (all its read
// locks go away together at finish — the manager is strict 2PL). O(priority
// domain), allocation-free, and leaves the count vector zeroed for reuse.
func (m *Manager) ceilRelease(s *slot) {
	for r, c := range s.ceilCounts {
		if c != 0 {
			m.readCeil[r] -= c
			s.ceilCounts[r] = 0
		}
	}
	for m.ceilTop >= 0 && m.readCeil[m.ceilTop] == 0 {
		m.ceilTop--
	}
}

// SysceilExcluding implements cc.CeilingIndex: the highest Wceil over items
// read-locked by transactions other than o, from the count profile alone.
// Passing an id that is not live (rt.NoJob included) excludes nothing.
//
//pcpda:alloc-free
//pcpda:holds mu
func (m *Manager) SysceilExcluding(o rt.JobID) rt.Priority {
	var own []int32
	if s := m.live(o); s != nil {
		own = s.ceilCounts
	}
	for r := m.ceilTop; r >= 0; r-- {
		n := m.readCeil[r]
		if own != nil {
			n -= own[r]
		}
		if n > 0 {
			return m.dom.Priority(r)
		}
	}
	return rt.Dummy
}

// EachCeilingHolder implements cc.CeilingIndex: every live transaction other
// than o holding a read lock on an item with Wceil == c, in job-id order.
//
//pcpda:alloc-free
//pcpda:holds mu
func (m *Manager) EachCeilingHolder(c rt.Priority, o rt.JobID, fn func(holder rt.JobID)) {
	r, ok := m.dom.Rank(c)
	if !ok {
		return
	}
	for _, s := range m.actList {
		if s.job.ID != o && s.ceilCounts[r] > 0 {
			fn(s.job.ID)
		}
	}
}

// --- donation-based priority inheritance -------------------------------------

// donate adds the running priority of s's instance to every blocker's
// received-donations multiset and cascades raises. Called when it parks
// (Blockers just filled). Two phases — add everywhere first, then refresh —
// so a cascade that loops back through a transient wait cycle never retracts
// a value that was not yet added.
func (m *Manager) donate(s *slot) {
	p := s.job.RunPri
	s.donatedPri = p
	for _, bid := range s.job.Blockers {
		if b := m.live(bid); b != nil {
			b.recv.Add(p)
		}
	}
	for _, bid := range s.job.Blockers {
		if b := m.live(bid); b != nil {
			m.refreshPri(b)
		}
	}
}

// retract undoes the outstanding donation of s's instance and clears its
// Blockers. Called immediately after a park wakes (before the condition is
// re-evaluated), so donation state tracks the Blocked set exactly. Blockers
// that already finished are no longer live — their bookkeeping was reset
// with them, and nothing here reaches their slots' next instances.
func (m *Manager) retract(s *slot) {
	p := s.donatedPri
	if p.IsDummy() {
		return
	}
	s.donatedPri = rt.Dummy
	blockers := s.job.Blockers
	s.job.Blockers = nil
	for _, bid := range blockers {
		if b := m.live(bid); b != nil {
			b.recv.Remove(p)
		}
	}
	for _, bid := range blockers {
		if b := m.live(bid); b != nil {
			m.refreshPri(b)
		}
	}
}

// refreshPri recomputes b's running priority (base ∨ received donations),
// propagates a change through b's own outstanding donation, and — when the
// priority ROSE and b is parked on a lock request — wakes b, because LC2
// admits on the running priority and may now pass. The cascade terminates:
// within one donate (retract) call priorities only move up (down) through a
// finite lattice.
func (m *Manager) refreshPri(b *slot) {
	np := b.job.BasePri().Max(b.recv.Max())
	if np == b.job.RunPri {
		return
	}
	raised := np > b.job.RunPri
	b.job.RunPri = np
	if !b.donatedPri.IsDummy() && b.donatedPri != np {
		old := b.donatedPri
		b.donatedPri = np
		for _, bid := range b.job.Blockers {
			if c := m.live(bid); c != nil {
				c.recv.Remove(old)
				c.recv.Add(np)
			}
		}
		for _, bid := range b.job.Blockers {
			if c := m.live(bid); c != nil {
				m.refreshPri(c)
			}
		}
	}
	if raised && b.wn.parked() && b.wn.kind == waitLock {
		b.wn.wake()
	}
}

// fixpointPri recomputes the inheritance fixpoint from scratch (the legacy
// O(live²) rule: a blocker runs at the highest priority among the
// transactions transitively blocked on it) into the provided map. Used by
// CheckInvariants and the property tests to certify the incremental
// donations; never on the hot path.
func (m *Manager) fixpointPri(want map[rt.JobID]rt.Priority) {
	for _, s := range m.actList {
		want[s.job.ID] = s.job.BasePri()
	}
	for changed := true; changed; {
		changed = false
		for _, s := range m.actList {
			if s.job.Status != cc.Blocked {
				continue
			}
			for _, bid := range s.job.Blockers {
				if m.live(bid) == nil {
					continue
				}
				if want[bid] < want[s.job.ID] {
					want[bid] = want[s.job.ID]
					changed = true
				}
			}
		}
	}
}
