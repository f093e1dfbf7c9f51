// The slot table: one slot per transaction type.
//
// The paper's model is a fixed set of transaction types with at most one
// live instance of each (Begin is non-reentrant per template), so everything
// the manager keeps per live transaction has a permanent home, indexed by
// txn.ID and built once in NewWithOptions. An instance borrows its slot from
// admit to finish; the only thing allocated per transaction is the handle.

package rtm

import (
	"pcpda/internal/cc"
	"pcpda/internal/db"
	"pcpda/internal/rt"
	"pcpda/internal/txn"
)

// slot holds one template's live instance and everything filed under it.
// finish leaves every per-instance field ready for the next admit.
type slot struct {
	mgr  *Manager      //pcpda:guardedby immutable
	tmpl *txn.Template //pcpda:guardedby immutable

	// cur is the handle holding the slot; nil when the slot is free. A
	// finished handle stays here only while its goroutine is still inside
	// park (see finish).
	cur *Txn //pcpda:guardedby Manager.mu
	// job is cur's job. Tmpl, DataRead and WS are set once and never change.
	job cc.Job //pcpda:guardedby Manager.mu

	wn        waitNode       //pcpda:guardedby Manager.mu — cur's own wait node
	blockers  []rt.JobID     //pcpda:guardedby Manager.mu — scratch for commit-wait blocker lists
	installed []db.Installed //pcpda:guardedby Manager.mu — scratch for the (item, version) pairs a commit installs

	waiters []*waitNode //pcpda:guardedby Manager.mu — lock and commit waiters blocked on cur
	begins  []*waitNode //pcpda:guardedby Manager.mu — Begin calls waiting for the slot
}

// initSlots builds the table. Called once from NewWithOptions.
func (m *Manager) initSlots() {
	m.slots = make([]slot, len(m.set.Templates))
	m.active = make([]*cc.Job, 0, len(m.slots))
	m.pris = make([]rt.Priority, len(m.slots))
	for i, tmpl := range m.set.Templates {
		m.slots[i] = slot{
			mgr:  m,
			tmpl: tmpl,
			job:  cc.Job{Tmpl: tmpl, Status: cc.Done, MissedAt: -1, DataRead: rt.NewItemSet(), WS: db.NewWorkspace()},
			wn:   waitNode{ch: make(chan struct{}, 1)},
		}
	}
}

// live resolves a job id to the slot of its live instance, nil when there is
// none: a scan of the live list, which holds at most one entry per template.
//
//pcpda:alloc-free
func (m *Manager) live(id rt.JobID) *slot {
	for _, j := range m.active {
		if j.ID == id {
			return &m.slots[j.Tmpl.ID]
		}
	}
	return nil
}
