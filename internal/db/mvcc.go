// Multiversion read support: a short per-item version chain fed at commit
// time, readable lock-free.
//
// Update transactions keep the flat cell store (Install / InstallInto)
// exactly as before — the chain is an additional, append-only index over
// committed versions, stamped with the manager's commit tick. A declared
// read-only transaction picks a snapshot tick S and answers every read
// with the newest version whose tick is <= S, walking the chain over
// atomic pointers only. Per Faleiro & Abadi, commit-order-determined
// version visibility makes such reads serializable with no validation:
// the reader behaves exactly as if it ran at the instant of tick S.
//
// Concurrency contract:
//
//   - All mutation (InstallVersioned, InstallIntoAt) happens
//     under one external writer lock — the rtm manager mutex. The chain
//     code itself takes no locks.
//   - ReadAt may be called from any goroutine with no lock held, provided
//     the caller first loaded its snapshot tick from an atomic the writer
//     published *after* installing (release/acquire ordering): every
//     version with tick <= S is then guaranteed visible.
//
// Truncation never yields a wrong answer. Chains are bounded eagerly at
// install time by storing a distinguished sentinel in place of the oldest
// retained node's predecessor. A walk that reaches the sentinel before
// finding a version old enough for its snapshot returns ErrSnapshotEvicted
// (typed, retryable — the reader restarts on a fresh snapshot); a walk that
// reaches nil ran off the natural start of the chain, where the initial
// state (Value 0, Version 0, InitRun) is the correct answer. Readers
// already past the cut point keep walking the old nodes, which remain
// immutable and correct.

package db

import (
	"errors"
	"sync/atomic"

	"pcpda/internal/rt"
)

// ChainLimit bounds every item's reachable version chain: long enough that
// a snapshot only one or two commit ticks old essentially never misses,
// short enough that a hot item holds O(1) history.
const ChainLimit = 8

// ErrSnapshotEvicted reports that the version a snapshot read needed has
// been truncated from the item's chain. The transaction's snapshot is no
// longer answerable; retry on a fresh snapshot.
var ErrSnapshotEvicted = errors.New("db: snapshot version evicted from chain")

// versionNode is one committed version of one item. Immutable after
// publication except for prev, which truncation may redirect to the
// eviction sentinel.
type versionNode struct {
	val    Value   //pcpda:guardedby immutable
	ver    Version //pcpda:guardedby immutable
	writer RunID   //pcpda:guardedby immutable
	tick   int64   //pcpda:guardedby immutable — manager commit tick that installed this version
	prev   atomic.Pointer[versionNode]
}

// evictedNode is the truncation sentinel: a chain walk reaching it knows
// older versions existed but were dropped, as opposed to reaching nil (the
// natural chain start, where the initial state is the right answer).
var evictedNode = &versionNode{ver: -1, writer: NoRun, tick: -1}

// chainHead is the per-item anchor. Its identity is stable across slab
// growth so readers holding an old chains slice still observe new heads.
type chainHead struct {
	head atomic.Pointer[versionNode]
}

// InstallVersioned is Install plus a version-chain append: the new version
// is stamped with tick and becomes the item's chain head. Caller holds the
// writer lock; tick must be monotonically non-decreasing across calls and
// strictly increasing between commits.
func (s *Store) InstallVersioned(run RunID, x rt.Item, v Value, tick int64) Version {
	ver := s.Install(run, x, v)
	h := s.headFor(x)
	n := &versionNode{val: v, ver: ver, writer: run, tick: tick}
	n.prev.Store(h.head.Load())
	h.head.Store(n)
	truncateChain(n)
	return ver
}

// headFor returns x's chain anchor, growing the chains slab copy-on-write
// if x is beyond it. Caller holds the writer lock.
func (s *Store) headFor(x rt.Item) *chainHead {
	chains := s.chains.Load()
	if chains != nil && int(x) < len(*chains) {
		return (*chains)[x]
	}
	next := make([]*chainHead, int(x)+1)
	if chains != nil {
		copy(next, *chains)
	}
	for i := range next {
		if next[i] == nil {
			next[i] = &chainHead{}
		}
	}
	s.chains.Store(&next)
	return next[x]
}

// truncateChain eagerly bounds the chain that starts at head: the node at
// the limit depth gets the eviction sentinel as its predecessor, making
// everything older unreachable for walks that start after this point.
// Walks already past the cut keep their (immutable, correct) old nodes.
func truncateChain(head *versionNode) {
	n := head
	for i := 1; i < ChainLimit; i++ {
		next := n.prev.Load()
		if next == nil || next == evictedNode {
			return
		}
		n = next
	}
	if p := n.prev.Load(); p != nil && p != evictedNode {
		n.prev.Store(evictedNode)
	}
}

// InstallIntoAt is InstallInto with version-chain appends: every installed
// version is stamped with tick and published at its item's chain head. The
// installed pairs are appended to dst, which the live manager's commit path
// reuses from one transaction to the next. Caller holds the store's writer
// lock.
func (w *Workspace) InstallIntoAt(dst []Installed, s *Store, run RunID, tick int64) []Installed {
	for i, x := range w.order {
		ver := s.InstallVersioned(run, x, w.vals[i], tick)
		dst = append(dst, Installed{Item: x, Version: ver})
	}
	return dst
}
