// Batched admission (ROADMAP 4(e) deletes this file with the benchmark probe
// that is its only caller): Begin takes the manager lock once per
// transaction, so an arrival burst of k admissions pays the herd cost k
// times. BeginBatch admits k instances under ONE manager-lock
// acquisition — when every requested slot is free (the common case for a
// burst arriving after the previous wave finished), the whole batch is
// admitted without the lock ever being released, and the per-admission
// bookkeeping (clock, history, pooled resources, template slots) happens
// back to back on a warm cache.

package rtm

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"pcpda/internal/fault"
	"pcpda/internal/rt"
	"pcpda/internal/txn"
)

// BeginBatch starts one instance of each named transaction type, admitting
// as many as possible under a single manager-lock acquisition. The returned
// handles correspond to names position by position.
//
// Semantics match len(names) sequential Begin calls, with two deliberate
// differences:
//
//   - Names must be distinct. Two instances of one template cannot be live
//     together (Begin's non-reentrancy), so a duplicate inside one batch
//     would park the batch waiting on itself; it is rejected up front.
//   - Busy slots are waited for in template-ID order regardless of the
//     order of names. All BeginBatch callers therefore acquire slots along
//     one global order, so two overlapping batches can never deadlock
//     against each other (classical resource ordering). Handles still come
//     back in request order.
//
// On any failure — cancellation while waiting for a slot, or an injected
// fault during admission — every instance the batch already admitted is
// aborted again before the error returns, so a failed batch leaves no
// trace: a batch is admitted all or nothing.
func (m *Manager) BeginBatch(ctx context.Context, names []string) ([]*Txn, error) {
	if len(names) == 0 {
		return nil, nil
	}
	tmpls := make([]*txn.Template, len(names))
	for i, name := range names {
		tmpl := m.set.ByName(name)
		if tmpl == nil {
			return nil, fmt.Errorf("rtm: unknown transaction type %q", name)
		}
		tmpls[i] = tmpl
	}
	// Admission order: ascending template ID (see the doc comment). order
	// holds positions into names/tmpls; a batch of one has nothing to order
	// and nothing to collide with. Sorted, a duplicate template sits next
	// to its twin.
	order := make([]int, len(tmpls))
	for i := range order {
		order[i] = i
	}
	if len(order) > 1 {
		slices.SortFunc(order, func(a, b int) int {
			return cmp.Or(cmp.Compare(tmpls[a].ID, tmpls[b].ID), cmp.Compare(a, b))
		})
		for k := 1; k < len(order); k++ {
			if i, j := order[k-1], order[k]; tmpls[i].ID == tmpls[j].ID {
				return nil, fmt.Errorf("rtm: batch names %q at positions %d and %d; instances of one template cannot be live together", names[i], i, j)
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, &cancelledError{cause: err}
	}

	hs, out := make([]Txn, len(names)), make([]*Txn, len(names)) // handles made outside the mutex
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, pos := range order {
		s := &m.slots[tmpls[pos].ID]
		for s.cur != nil {
			// parkBegin releases m.mu while parked; instances admitted so
			// far keep their slots and are visible (and abortable-by-fault)
			// exactly as if their Begin calls had already returned.
			if err := m.parkBegin(ctx, s); err != nil {
				m.rollbackBatch(out)
				return nil, err
			}
		}
		t := &hs[pos]
		m.admit(s, t)
		out[pos] = t
		if err := m.inject(fault.BeginTxn, t, true); err != nil {
			// The injected failure already tore t down; undo the rest.
			out[pos] = nil
			m.rollbackBatch(out)
			return nil, err
		}
	}
	m.stats.Batches++
	return out, nil
}

// rollbackBatch aborts every non-nil handle in ts that is still live.
// Caller holds m.mu.
func (m *Manager) rollbackBatch(ts []*Txn) {
	for _, t := range ts {
		if t == nil || t.done {
			continue
		}
		m.clock++
		m.stats.Aborts++
		m.kill(t)
	}
}

// Set returns the transaction set the manager was built from. The set is
// immutable after New; callers must not mutate it.
func (m *Manager) Set() *txn.Set { return m.set }

// ID returns the manager-assigned job id of this transaction instance.
// Stable for the life of the handle, including after it finishes.
func (t *Txn) ID() rt.JobID { return t.id }

// Template returns the transaction type this instance was begun from.
func (t *Txn) Template() *txn.Template { return t.slot.tmpl }

// ParkedWaiters returns the number of currently registered wait nodes
// (lock, commit and Begin waiters together). At any quiescent point this is
// zero; the network server's drain uses it to prove that no session leaked
// a registration.
func (m *Manager) ParkedWaiters() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	m.eachParked(func(*waitNode) { n++ })
	return n
}
