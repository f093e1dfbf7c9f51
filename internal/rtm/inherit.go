// Priority inheritance for the live manager: the kernel's rule, cc.Inherit,
// re-run wherever the Blocked set changes, plus the one wake rule it implies
// here.
package rtm

import "pcpda/internal/cc"

// inherit recomputes every live transaction's running priority (cc.Inherit,
// the rule the kernel schedules by) and wakes each parked lock waiter whose
// priority rose: LC2 admits on the running priority and may now pass. It is
// called wherever the Blocked set changes — a park, a wake, a cycle victim's
// own exit, a foreign abort of a parked owner — so running priorities equal
// the inheritance fixpoint at every release of m.mu. A park only adds edges,
// so priorities only rise and "raised" is "ends above where it started"; the
// other changes only remove edges and wake nobody. At most one instance per
// template is live, and only parks and wakes pay, so each recompute walks a
// handful of jobs.
//
//pcpda:alloc-free
func (m *Manager) inherit() {
	before := m.pris[:len(m.active)]
	for i, j := range m.active {
		before[i] = j.RunPri
	}
	cc.Inherit(m)
	for i, j := range m.active {
		if n := &m.slots[j.Tmpl.ID].wn; j.RunPri > before[i] && n.parked() && n.kind == waitLock {
			n.wake()
		}
	}
}
