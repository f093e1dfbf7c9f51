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
	"pcpda/internal/db"
	"pcpda/internal/rt"
)

// txnRes bundles every per-transaction allocation that can be recycled
// between transaction instances: the wait node, the donation multiset, the
// ceiling count vector, the blocker scratch list, the commit's installed
// list and the declared-set containers. One warm manager runs an arbitrary
// number of transactions with no per-instance allocation of these. The
// cc.Job itself is NOT pooled — a finished handle's job stays inspectable
// (tests poll job.Status after the fact), so it must never be reused.
type txnRes struct {
	wn         waitNode
	recv       *rt.PriorityMultiset // donations received while others wait on us
	ceilCounts []int32              // live read locks per write-ceiling rank
	blockers   []rt.JobID           // scratch for commit-wait blocker lists
	installed  []db.Installed       // scratch for the (item, version) pairs a commit installs
	dataRead   *rt.ItemSet
	ws         *db.Workspace
}

func (m *Manager) getRes() *txnRes {
	if k := len(m.freeRes); k > 0 {
		r := m.freeRes[k-1]
		m.freeRes = m.freeRes[:k-1]
		return r
	}
	r := &txnRes{
		recv:       m.dom.NewMultiset(),
		ceilCounts: make([]int32, m.dom.Size()),
		dataRead:   rt.NewItemSet(),
		ws:         db.NewWorkspace(),
	}
	r.wn.ch = make(chan struct{}, 1)
	r.wn.allIdx = -1
	return r
}

// putRes returns r to the pool. The ceiling counts are already zero
// (ceilRelease runs in finish before this) and the wait node is already
// deregistered (park never returns while registered).
func (m *Manager) putRes(r *txnRes) {
	r.wn.t = nil
	r.wn.drain()
	r.recv.Reset()
	r.dataRead.Clear()
	r.ws.Discard()
	r.blockers = r.blockers[:0]
	m.freeRes = append(m.freeRes, r)
}

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

// ceilAdd records a newly acquired read lock by t on x. Caller holds m.mu
// and must only call this when the lock table reported a fresh acquisition
// (Acquire returned true), so re-reads never double-count.
func (m *Manager) ceilAdd(t *Txn, x rt.Item) {
	r := int(m.wceilRank[x])
	if r < 0 {
		return
	}
	m.readCeil[r]++
	t.res.ceilCounts[r]++
	if r > m.ceilTop {
		m.ceilTop = r
	}
}

// ceilRelease drops every ceiling contribution of t (all its read locks go
// away together at finish — the manager is strict 2PL). O(priority domain),
// allocation-free, and leaves t's count vector zeroed for reuse.
func (m *Manager) ceilRelease(t *Txn) {
	for r, c := range t.res.ceilCounts {
		if c != 0 {
			m.readCeil[r] -= c
			t.res.ceilCounts[r] = 0
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
	if t, ok := m.active[o]; ok {
		own = t.res.ceilCounts
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
	for _, t := range m.actList {
		if t.job.ID != o && t.res.ceilCounts[r] > 0 {
			fn(t.job.ID)
		}
	}
}

// --- donation-based priority inheritance -------------------------------------

// donate adds t's running priority to every blocker's received-donations
// multiset and cascades raises. Called when t parks (Blockers just filled).
// Two phases — add everywhere first, then refresh — so a cascade that loops
// back through a transient wait cycle never retracts a value that was not
// yet added.
func (m *Manager) donate(t *Txn) {
	p := t.job.RunPri
	t.donatedPri = p
	for _, bid := range t.job.Blockers {
		if b, ok := m.active[bid]; ok {
			b.res.recv.Add(p)
		}
	}
	for _, bid := range t.job.Blockers {
		if b, ok := m.active[bid]; ok {
			m.refreshPri(b)
		}
	}
}

// retract undoes t's outstanding donation and marks t runnable again.
// Called immediately after a park wakes (before the condition is
// re-evaluated), so donation state tracks the Blocked set exactly. Blockers
// that already finished are simply gone from the active map — their
// bookkeeping died with them.
func (m *Manager) retract(t *Txn) {
	p := t.donatedPri
	if p.IsDummy() {
		return
	}
	t.donatedPri = rt.Dummy
	blockers := t.job.Blockers
	t.job.Blockers = nil
	t.job.Status = cc.Ready
	for _, bid := range blockers {
		if b, ok := m.active[bid]; ok {
			b.res.recv.Remove(p)
		}
	}
	for _, bid := range blockers {
		if b, ok := m.active[bid]; ok {
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
func (m *Manager) refreshPri(b *Txn) {
	np := b.job.BasePri().Max(b.res.recv.Max())
	if np == b.job.RunPri {
		return
	}
	raised := np > b.job.RunPri
	b.job.RunPri = np
	if !b.donatedPri.IsDummy() && b.donatedPri != np {
		old := b.donatedPri
		b.donatedPri = np
		for _, bid := range b.job.Blockers {
			if c, ok := m.active[bid]; ok {
				c.res.recv.Remove(old)
				c.res.recv.Add(np)
			}
		}
		for _, bid := range b.job.Blockers {
			if c, ok := m.active[bid]; ok {
				m.refreshPri(c)
			}
		}
	}
	if raised && b.res.wn.parked() && b.res.wn.kind == waitLock {
		b.res.wn.wake()
	}
}

// fixpointPri recomputes the inheritance fixpoint from scratch (the legacy
// O(live²) rule: a blocker runs at the highest priority among the
// transactions transitively blocked on it) into the provided map. Used by
// CheckInvariants and the property tests to certify the incremental
// donations; never on the hot path.
func (m *Manager) fixpointPri(want map[rt.JobID]rt.Priority) {
	for id, t := range m.active {
		want[id] = t.job.BasePri()
	}
	for changed := true; changed; {
		changed = false
		for _, t := range m.active {
			if t.job.Status != cc.Blocked {
				continue
			}
			for _, bid := range t.job.Blockers {
				if _, ok := m.active[bid]; !ok {
					continue
				}
				if want[bid] < want[t.job.ID] {
					want[bid] = want[t.job.ID]
					changed = true
				}
			}
		}
	}
}
