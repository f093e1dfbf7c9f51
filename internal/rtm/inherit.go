// Priority inheritance for the live manager: the kernel's rule, cc.Inherit,
// re-run wherever the transition reports a change to the Blocked set, plus
// the one wake rule it implies here.

package rtm

import "pcpda/internal/cc"

// inherit recomputes every live transaction's running priority (cc.Inherit,
// the rule the kernel schedules by) and wakes each parked lock waiter whose
// priority rose: LC2 admits on the running priority and may now pass. It is
// called wherever cc.Apply, cc.Wait or cc.Retire reports that the Blocked set
// changed — a fresh or changed block before its park, a grant after a block,
// a Blocked transaction's exit — so running priorities equal the inheritance
// fixpoint at every release of m.mu. A change can lower some priorities and
// raise others (a re-block may swap blockers), and only a raise can flip a
// denial, so "raised" is "ends above where it started". At most one instance
// per template is live, and only changes to the Blocked set pay, so each
// recompute walks a handful of jobs.
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
