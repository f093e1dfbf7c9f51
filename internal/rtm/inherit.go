// Donation-based priority inheritance for the live manager.
//
// Running priorities under priority inheritance are maintained as explicit
// donations (a parked waiter donates its running priority to each of its
// blockers) instead of a global fixpoint recomputation on every blocking or
// finishing event. The received donations are a multiset over the paper's
// small total order of priorities: ranks are dense (rt.PriorityDomain), so
// "a count per priority level" is a flat array.
//
// Donation state is kept consistent with the classical inheritance fixpoint
// at every release of m.mu: parking (Status=Blocked, Blockers set, donations
// added) and waking (donations retracted, Blockers cleared) are each atomic
// under the lock, so CheckInvariants can always recompute the fixpoint from
// scratch (cc.CheckState, the kernel's audit too) and demand equality.
package rtm

import "pcpda/internal/rt"

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
