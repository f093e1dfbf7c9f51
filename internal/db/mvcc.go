// Multiversion read support: a fixed ring of the newest versions of each
// item, fed at commit time, readable lock-free.
//
// Update transactions keep the flat cell store (Install / InstallInto)
// exactly as before — the ring is an additional index over committed
// versions, stamped with the manager's commit tick. A declared read-only
// transaction picks a snapshot tick S and answers every read with the
// newest version whose tick is <= S, reading the ring through atomics
// only. Per Faleiro & Abadi, commit-order-determined version visibility
// makes such reads serializable with no validation: the reader behaves
// exactly as if it ran at the instant of tick S.
//
// Concurrency contract:
//
//   - All mutation (InstallVersioned, InstallIntoAt) happens
//     under one external writer lock — the rtm manager mutex. The ring
//     code itself takes no locks.
//   - ReadAt may be called from any goroutine with no lock held, provided
//     the caller first loaded its snapshot tick from an atomic the writer
//     published *after* installing (release/acquire ordering): every
//     version with tick <= S is then guaranteed visible.
//
// Eviction never yields a wrong answer. Exactly the newest ChainLimit
// versions of an item can be answered: install k is overwritten in place by
// install k+ChainLimit. Each slot is a seqlock, trusted only if it carries
// the expected install number before and after its fields are read. An
// older snapshot, or a slot overwritten under the reader, gets
// ErrSnapshotEvicted (typed, retryable — the reader restarts on a fresh
// snapshot); a snapshot older than every version of an item that has
// dropped none reads the initial state (Value 0, Version 0, InitRun).

package db

import (
	"errors"
	"fmt"
	"sync/atomic"

	"pcpda/internal/rt"
)

// ChainLimit is the number of versions every item retains: long enough that
// a snapshot only one or two commit ticks old essentially never misses,
// short enough that a hot item holds O(1) history.
const ChainLimit = 8

// ErrSnapshotEvicted reports that the version a snapshot read needed has
// been overwritten in the item's ring. The transaction's snapshot is no
// longer answerable; retry on a fresh snapshot.
var ErrSnapshotEvicted = errors.New("db: snapshot version evicted from chain")

// chainHead is one item's version ring. n, the number of versions ever
// installed, is the publication point: install k (1-based) lives in
// ring[(k-1) % ChainLimit]. Its identity is stable across slab growth so
// readers holding an old chains slice still observe new installs.
type chainHead struct {
	n    atomic.Int64
	ring [ChainLimit]versionSlot //pcpda:guardedby immutable — never reassigned; every slot field is atomic
}

// versionSlot is one retained version, overwritten in place while readers
// may be reading it: every field is atomic, and the stamp tells a reader
// whether what it read belongs together.
type versionSlot struct {
	stamp  atomic.Int64 // install number of the version held; 0 while being overwritten
	tick   atomic.Int64 // manager commit tick that installed this version
	val    atomic.Int64
	writer atomic.Int64
	ver    atomic.Int32
}

// InstallVersioned is Install plus a ring append: the new version is
// stamped with tick and overwrites the item's oldest retained one in place.
// Caller holds the writer lock; tick must be monotonically non-decreasing
// across calls and strictly increasing between commits.
//
//pcpda:alloc-free
func (s *Store) InstallVersioned(run RunID, x rt.Item, v Value, tick int64) Version {
	ver := s.Install(run, x, v)
	h := s.headFor(x)
	n := h.n.Load()
	sl := &h.ring[n%ChainLimit]
	sl.stamp.Store(0)
	sl.tick.Store(tick)
	sl.val.Store(int64(v))
	sl.writer.Store(int64(run))
	sl.ver.Store(int32(ver))
	sl.stamp.Store(n + 1)
	h.n.Store(n + 1)
	return ver
}

// headFor returns x's ring, growing the chains slab copy-on-write if x is
// beyond it. Caller holds the writer lock.
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

// CheckVersions audits the rings of a store written only through
// InstallVersioned, as the live manager's is: every retained slot holds the
// stamp of its install number; going back through the retained versions
// ticks strictly decrease and versions fall by exactly one; the newest
// version is the item's cell; and no tick is past horizon, the snapshot
// tick the writer has published. It returns one line per fault, none on a
// sound store. Caller holds the writer lock.
func (s *Store) CheckVersions(horizon int64) []string {
	chains := s.chains.Load()
	if chains == nil {
		return nil
	}
	var probs []string
	bad := func(format string, args ...any) { probs = append(probs, fmt.Sprintf(format, args...)) }
	for i, h := range *chains {
		x, n := rt.Item(i), h.n.Load()
		var newerTick int64
		var newerVer Version
		for k := n; k > 0 && k > n-ChainLimit; k-- {
			sl := &h.ring[(k-1)%ChainLimit]
			tick, ver := sl.tick.Load(), Version(sl.ver.Load())
			if st := sl.stamp.Load(); st != k {
				bad("item %d install %d: its slot is stamped %d", x, k, st)
			}
			if v, w, c := Value(sl.val.Load()), RunID(sl.writer.Load()), s.cell(x); k == n && (v != c.val || ver != c.version || w != c.writer) {
				bad("item %d newest version %d@v%d by run %d disagrees with store cell %d@v%d by run %d", x, v, ver, w, c.val, c.version, c.writer)
			}
			if k == n && tick > horizon {
				bad("item %d newest version (tick %d) not covered by published snapshot tick %d", x, tick, horizon)
			}
			if k < n && tick >= newerTick {
				bad("item %d install %d: tick %d not below the next install's %d", x, k, tick, newerTick)
			}
			if k < n && ver != newerVer-1 {
				bad("item %d install %d: version %d, the next install's is %d", x, k, ver, newerVer)
			}
			newerTick, newerVer = tick, ver
		}
	}
	return probs
}

// InstallIntoAt is InstallInto with ring appends: every installed version
// is stamped with tick and published in its item's ring. The installed
// pairs are appended to dst, which the live manager's commit path reuses
// from one transaction to the next. Caller holds the store's writer lock.
func (w *Workspace) InstallIntoAt(dst []Installed, s *Store, run RunID, tick int64) []Installed {
	for i, x := range w.order {
		ver := s.InstallVersioned(run, x, w.vals[i], tick)
		dst = append(dst, Installed{Item: x, Version: ver})
	}
	return dst
}
