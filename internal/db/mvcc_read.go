//pcpda:lockfree

// Snapshot read path over the version rings (see mvcc.go for the write
// side and the ordering contract). Everything in this file runs with no lock
// held from any goroutine and reads typed atomics only; the //pcpda:lockfree
// marker is enforced at access level by pcpdalint's atomics analyzer.

package db

import (
	"pcpda/internal/rt"
)

// ReadAt answers a snapshot read: the newest committed version of x with
// tick <= snap. Items never written by then read as the initial state
// (Value 0, Version 0, InitRun). If the version the snapshot needed is no
// longer retained, ReadAt returns ErrSnapshotEvicted rather than a wrong
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
	h := (*chains)[x]
	top := h.n.Load()
	for k := top; ; k-- {
		if k == 0 {
			return 0, 0, InitRun, nil // snapshot predates the first committed write
		}
		if k == top-ChainLimit {
			break // older than every retained version
		}
		sl := &h.ring[(k-1)%ChainLimit]
		if sl.stamp.Load() != k {
			break // overwritten since top was loaded
		}
		tick, val, ver, writer := sl.tick.Load(), sl.val.Load(), sl.ver.Load(), sl.writer.Load()
		if sl.stamp.Load() != k {
			break // overwritten while its fields were read
		}
		if tick <= snap {
			return Value(val), Version(ver), RunID(writer), nil
		}
	}
	return 0, 0, NoRun, ErrSnapshotEvicted
}

// ChainLen returns the number of retained committed versions of x. For
// tests and invariant checks.
func (s *Store) ChainLen(x rt.Item) int {
	chains := s.chains.Load()
	if chains == nil || x < 0 || int(x) >= len(*chains) {
		return 0
	}
	return int(min((*chains)[x].n.Load(), ChainLimit))
}
