//pcpda:lockfree

// Snapshot read path: declared read-only transactions run with zero
// lock-table traffic and zero manager-mutex acquisitions.
//
// A read-only transaction picks its snapshot by loading the manager's
// published snapshot tick (an atomic, stored at the end of every Commit
// while the installing writer still holds the manager mutex) and answers
// every read from the store's per-item version chains with db.ReadAt —
// an atomic chain walk, no locks, no allocation. Per Faleiro & Abadi
// ("Rethinking serializable multiversion concurrency control"), visibility
// determined purely by commit order needs no validation: the transaction
// reads exactly the committed state at its snapshot tick, which is a
// serial point of the update history by the manager's commit-order
// serializability guarantee.
//
// Consequences the rest of the system relies on:
//
//   - RO transactions are invisible to the protocol: no template slot, no
//     priority, no ceiling contribution, nothing an update transaction
//     can block on. The server routes them around admission entirely.
//   - RO transactions do not appear in the shared history (they commit at
//     no tick of their own); history.CheckSnapshot validates them against
//     the committed projection instead.
//   - A snapshot pinned past the chain bound gets ErrSnapshotEvicted — a
//     typed, retryable refusal, never a wrong answer. Retrying begins a
//     fresh transaction on a fresh (newer) snapshot, so the retry is
//     idempotent by construction: it re-reads committed state.
//
// The //pcpda:lockfree file marker above is enforced by pcpdalint's
// capability analyzer: nothing in this file may touch a sync.Mutex or the
// lock table.

package rtm

import (
	"context"
	"sync/atomic"

	"pcpda/internal/db"
	"pcpda/internal/rt"
)

// ROTxn is a read-only snapshot transaction. Unlike Txn it holds no
// locks, no template slot and no manager resources: it is a snapshot tick
// plus a done flag, and every operation is lock-free. Safe for use by one
// goroutine.
type ROTxn struct {
	mgr  *Manager //pcpda:guardedby immutable
	id   int64    //pcpda:guardedby immutable — RO sequence number; a namespace separate from rt.JobID
	snap int64    //pcpda:guardedby immutable — snapshot tick: reads see commits at or before it
	done atomic.Bool
}

// BeginReadOnly starts a read-only snapshot transaction at the newest
// published commit tick. It never blocks, acquires no locks and takes no
// mutex; the returned handle reads the committed state as of its snapshot
// and is finished with Commit or Abort (both trivial).
func (m *Manager) BeginReadOnly(ctx context.Context) (*ROTxn, error) {
	if err := ctx.Err(); err != nil {
		return nil, wrapCancelled(err)
	}
	m.roBegins.Add(1)
	// Load the snapshot AFTER deciding to begin: acquire on snapTick
	// makes every version chained at or before it visible to ReadAt.
	return &ROTxn{mgr: m, id: m.nextROID.Add(1), snap: m.snapTick.Load()}, nil
}

// wrapCancelled builds the cancellation error outside any alloc-free
// annotated body.
func wrapCancelled(cause error) error { return &cancelledError{cause: cause} }

// ID returns the RO sequence number. It identifies the transaction in a
// namespace separate from update-transaction job ids.
func (t *ROTxn) ID() int64 { return t.id }

// Snapshot returns the commit tick this transaction reads at.
func (t *ROTxn) Snapshot() rt.Ticks { return rt.Ticks(t.snap) }

// Read returns the value of item as of the snapshot: the newest version
// committed at or before the snapshot tick, walked lock-free off the
// item's version chain. Items unwritten by then read as the initial
// state. If the chain bound evicted the needed version the read fails
// with db.ErrSnapshotEvicted (retryable: begin a fresh transaction).
//
//pcpda:alloc-free
func (t *ROTxn) Read(ctx context.Context, item rt.Item) (db.Value, error) {
	v, _, _, err := t.ReadVersion(ctx, item)
	return v, err
}

// ReadVersion is Read with the full observation — value, version and
// writing run — for snapshot-consistency audits (history.CheckSnapshot).
//
//pcpda:alloc-free
func (t *ROTxn) ReadVersion(ctx context.Context, item rt.Item) (db.Value, db.Version, db.RunID, error) {
	if t.done.Load() {
		return 0, 0, db.NoRun, ErrClosed
	}
	if err := ctx.Err(); err != nil {
		t.Abort()
		return 0, 0, db.NoRun, wrapCancelled(err)
	}
	m := t.mgr
	m.roReads.Add(1)
	v, ver, from, err := m.store.ReadAt(item, t.snap)
	if err != nil {
		m.roEvictions.Add(1)
		t.Abort()
		return 0, 0, db.NoRun, err
	}
	return v, ver, from, nil
}

// Commit finishes the transaction. A read-only snapshot transaction holds
// nothing, so committing is a counter bump; it never blocks and cannot
// fail except on a finished handle.
func (t *ROTxn) Commit(ctx context.Context) error {
	if !t.done.CompareAndSwap(false, true) {
		return ErrClosed
	}
	t.mgr.roCommits.Add(1)
	return nil
}

// Abort finishes the transaction without counting it committed.
// Idempotent, like Txn.Abort.
func (t *ROTxn) Abort() {
	if t.done.CompareAndSwap(false, true) {
		t.mgr.roAborts.Add(1)
	}
}
