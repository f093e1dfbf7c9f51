package db

import "pcpda/internal/rt"

// ChainEvicted reports whether x has dropped a version from its ring.
func (s *Store) ChainEvicted(x rt.Item) bool {
	chains := s.chains.Load()
	return chains != nil && int(x) < len(*chains) && (*chains)[x].n.Load() > ChainLimit
}

// retainedSlot returns the slot holding x's version back installs behind
// the newest, for tests that corrupt one field and expect CheckVersions to
// report it.
func (s *Store) retainedSlot(x rt.Item, back int64) *versionSlot {
	h := (*s.chains.Load())[x]
	return &h.ring[(h.n.Load()-1-back)%ChainLimit]
}
