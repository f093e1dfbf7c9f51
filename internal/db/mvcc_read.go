//pcpda:lockfree

// Snapshot read path over the version chains (see mvcc.go for the write
// side and the package comment for the ordering contract). Everything in
// this file runs with no lock held from any goroutine: chain traversal is
// atomic-pointer loads over nodes whose payload fields are immutable after
// publication. The //pcpda:lockfree marker is enforced at access level by
// pcpdalint's atomics analyzer — every field read here must resolve to an
// atomic load, an immutable field, or a fresh value.

package db

import (
	"pcpda/internal/rt"
)

// ReadAt answers a snapshot read: the newest committed version of x with
// tick <= snap. Items never written by then read as the initial state
// (Value 0, Version 0, InitRun). If truncation dropped the version the
// snapshot needed, ReadAt returns ErrSnapshotEvicted rather than a wrong
// answer. Lock-free and allocation-free; see the package comment for the
// ordering contract.
//
//pcpda:alloc-free
func (s *Store) ReadAt(x rt.Item, snap int64) (Value, Version, RunID, error) {
	chains := s.chains.Load()
	if chains == nil || x < 0 || int(x) >= len(*chains) {
		// No version of x committed before the caller's snapshot was
		// published (release/acquire: a version with tick <= snap would
		// have made its slab slot visible to this load) — or x is no item
		// id at all, which reads as initial like every other query.
		return 0, 0, InitRun, nil
	}
	n := (*chains)[x].head.Load()
	for n != nil {
		if n == evictedNode {
			return 0, 0, NoRun, ErrSnapshotEvicted
		}
		if n.tick <= snap {
			return n.val, n.ver, n.writer, nil
		}
		n = n.prev.Load()
	}
	return 0, 0, InitRun, nil // snapshot predates the first committed write
}

// ChainLen returns the number of reachable committed versions of x
// (excluding the eviction sentinel). For tests and invariant checks.
func (s *Store) ChainLen(x rt.Item) int {
	chains := s.chains.Load()
	if chains == nil || x < 0 || int(x) >= len(*chains) {
		return 0
	}
	n := 0
	for v := (*chains)[x].head.Load(); v != nil && v != evictedNode; v = v.prev.Load() {
		n++
	}
	return n
}

// ChainEvicted reports whether x's chain has been truncated (its oldest
// reachable node points at the eviction sentinel).
func (s *Store) ChainEvicted(x rt.Item) bool {
	chains := s.chains.Load()
	if chains == nil || x < 0 || int(x) >= len(*chains) {
		return false
	}
	for v := (*chains)[x].head.Load(); v != nil; v = v.prev.Load() {
		if v == evictedNode {
			return true
		}
	}
	return false
}

// EachNewestVersion calls fn for every item with a nonempty chain, passing
// the newest node's observation. Iteration is in item order. Invariant
// checks use this to demand chain/cell agreement.
func (s *Store) EachNewestVersion(fn func(x rt.Item, v Value, ver Version, writer RunID, tick int64)) {
	chains := s.chains.Load()
	if chains == nil {
		return
	}
	for i, h := range *chains {
		n := h.head.Load()
		if n == nil || n == evictedNode {
			continue
		}
		fn(rt.Item(i), n.val, n.ver, n.writer, n.tick)
	}
}
